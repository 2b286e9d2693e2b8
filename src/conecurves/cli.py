"""Command-line front end.

Commands: roots, gp, ne, classify, affine-compare, selfcheck.
Exit codes: 0 success, 2 invalid input, 3 internal inconsistency.
All output is deterministic; classify emits JSON (default) or TSV.
Every integer, in an option or a comma-separated field, is read by
rootsys.parse_decimal.  A reader that closes stdout early
(`conecurves ne ... | head -1`) ends the run with exit code 0 and
nothing on stderr: stdout is pointed at os.devnull so that the
interpreter's final flush does not fail again.

The work of one run is bounded: ne, classify and affine-compare refuse a
degree above _MAX_DEGREE while parsing, and ne and classify refuse, from
the count alone and before enumerating, a request for more than
_MAX_CLASSES classes or components (exit code 2).

ne and classify stream their output from one checked stream: ne takes
each class from components.checked_solutions, the enumerator with
every vector checked to be nonnegative and of the requested degree, and
classify takes each component as a plain row from components.iter_rows,
which walks every stratum through the same checked stream.  Either stream passes through _counted, which refuses
the request from the count alone before the first row is taken and,
once the rows end, compares their number (before the
--exclude-vertex-stratum filter) with the count from the generating
function; a mismatch exits 3 before the document is closed.  Rows are
laid out by hand and written _WRITE_BATCH at a time while the
enumeration runs, so neither command builds a record, a class list or a
component list, memory stays flat as the degree grows, and the writes
stay few when stdout is unbuffered (python -u, PYTHONUNBUFFERED=1).
Writing starts before the last row and the last stratum's lift are
checked, so on exit code 3 stdout may hold a truncated document.

Each command imports the modules it uses when it runs, so roots and gp
load none of components, conegeom and affine, and ne and classify do not
load affine.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterator
from typing import TYPE_CHECKING

from .errors import InputError, InternalError
from .parabolic import build_parabolic, kappa, minimal_ample, parse_alpha_p, parse_lambda
from .rootsys import CartanType, build_root_system, highest_root, parse_decimal, rho

if TYPE_CHECKING:
    from .components import ComponentReport
    from .conegeom import ConeSpace

# Largest --degree accepted.  It bounds the counts that gate enumeration:
# components.count_solutions takes O(k * degree) steps for k weights, or
# O(D^2 * log degree) for weight sum D where that is estimated cheaper.
_MAX_DEGREE = 100_000
# Largest number of classes (ne) or components (classify) one run may list.
_MAX_CLASSES = 1_000_000
# Rows (classes or components) joined into one stdout write by ne and classify.
_WRITE_BATCH = 4096


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors are a single machine-readable stderr line."""

    def error(self, message):
        print(f"input error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _decimal(text: str) -> int:
    """argparse type for a nonnegative integer, read by rootsys.parse_decimal."""
    try:
        return parse_decimal(text, "value")
    except InputError as exc:  # a ValueError, which argparse would report in its own words
        raise argparse.ArgumentTypeError(str(exc)) from None


def _degree(text: str) -> int:
    """argparse type for --degree: ASCII decimal digits, at most _MAX_DEGREE."""
    degree = _decimal(text)
    if degree > _MAX_DEGREE:
        raise argparse.ArgumentTypeError(f"degree {degree} exceeds the limit {_MAX_DEGREE}")
    return degree


def _counted(rows: Iterator, total: int, what: str) -> Iterator:
    """The rows, refused before the first is taken when total is over _MAX_CLASSES.

    total is the generating-function count of the rows; when they end,
    their number is compared with it, and a mismatch raises InternalError
    before the caller writes anything more.
    """
    if total > _MAX_CLASSES:
        raise InputError(f"the request has {total} {what}, more than the limit {_MAX_CLASSES}")
    enumerated = 0
    for enumerated, row in enumerate(rows, 1):
        yield row
    if enumerated != total:
        raise InternalError(f"enumerated {enumerated} {what}, but the generating function counts {total}")


def _fmt(vec) -> str:
    return ",".join(str(v) for v in vec)


def _expanded_lambda(cone: ConeSpace) -> list[int]:
    lam = [0] * cone.parabolic.rs.rank
    for i, l in zip(cone.parabolic.alpha_p, cone.ell):
        lam[i - 1] = l
    return lam


def _make_cone(args: argparse.Namespace) -> ConeSpace:
    from .conegeom import build_cone

    rs = build_root_system(CartanType.parse(args.type))
    p = build_parabolic(rs, parse_alpha_p(args.parabolic))
    if args.ample.strip().lower() == "min":
        lam = minimal_ample(p)
    else:
        lam = parse_lambda(args.ample, rs.rank)
    return build_cone(p, lam, args.vertex_dim)


def report_to_dict(report: ComponentReport) -> dict:
    """The classify JSON document as plain data, for json.dumps(..., indent=2).

    Independent oracle for the hand-laid writer of cmd_classify: tests
    compare the writer's output with json.dumps of this dict.
    """
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


def _write_rows(head: str, rows: Iterator[str], sep: str = "") -> int:
    """Write head, then the rows joined by sep, one stdout write per _WRITE_BATCH rows.

    rows must be an iterator, since each batch takes the next rows from
    it.  head goes out with the first batch, or alone when there are no
    rows.  Returns the number of rows.
    """
    count = 0
    while batch := [row for _, row in zip(range(_WRITE_BATCH), rows)]:
        sys.stdout.write(head + sep.join(batch))
        head = sep
        count += len(batch)
    if not count:
        sys.stdout.write(head)
    return count


def _json_list(items: list[str], indent: str) -> str:
    """Printed items as a JSON list in the json.dumps(indent=2) layout, items at `indent`."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(indent + item for item in items) + "\n" + indent[2:] + "]"


def _json_head(cone: ConeSpace, degree: int, case: str) -> str:
    """The classify document up to the opening bracket of "components"."""

    def ints(values) -> str:
        return _json_list([str(v) for v in values], " " * 6)

    return (
        '{\n  "cone": {\n'
        f'    "type": "{cone.parabolic.rs.cartan_type}",\n'
        f'    "parabolic": {ints(cone.parabolic.alpha_p)},\n'
        f'    "lambda": {ints(_expanded_lambda(cone))},\n'
        f'    "ell": {ints(cone.ell)},\n'
        f'    "vertex_dim": {cone.vertex_dim},\n'
        f'    "dim_x": {cone.dim_x}\n'
        "  },\n"
        f'  "total_degree": {degree},\n'
        f'  "case": "{case}",\n'
        '  "components": ['
    )


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
    from .components import checked_solutions, count_solutions

    cone = _make_cone(args)
    total = count_solutions(cone.ell, args.degree)
    classes = _counted(checked_solutions(cone.ell, args.degree), total, "effective classes")
    row = "ne " + ",".join(["%d"] * len(cone.ell)) + "\n"
    count = _write_rows("", map(row.__mod__, classes))
    sys.stdout.write(f"count {count}\n")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    from .components import count_components, iter_rows
    from .conegeom import has_lines

    cone = _make_cone(args)
    rows = _counted(iter_rows(cone, args.degree), count_components(cone, args.degree), "components")
    exclude = args.exclude_vertex_stratum
    dims: set[int] = set()

    def fields() -> Iterator[tuple[int, ...]]:
        for beta, alpha_prime, m, rel, dim in rows:
            if exclude and not any(beta):
                continue
            dims.add(dim)
            yield (*beta, alpha_prime, m, rel, m, dim)  # iter_rows checked e equal to m

    beta_slots = ["%d"] * len(cone.ell)
    if args.format == "tsv":
        head = "beta\talpha_prime\tvertex_multiplicity\trelative_degree\te\tdimension\n"
        row = ",".join(beta_slots) + "\t%d\t%d\t%d\t%d\t%d\n"
        _write_rows(head, map(row.__mod__, fields()))
        return 0
    row = (
        "\n    {\n"
        f'      "beta": {_json_list(beta_slots, " " * 8)},\n'
        '      "alpha_prime": %d,\n'
        '      "vertex_multiplicity": %d,\n'
        '      "relative_degree": %d,\n'
        '      "e": %d,\n'
        '      "dimension": %d\n'
        "    }"
    )
    head = _json_head(cone, args.degree, "lines" if has_lines(cone) else "no_lines")
    count = _write_rows(head, map(row.__mod__, fields()), ",")
    sys.stdout.write(
        ("\n  ]" if count else "]")
        + f',\n  "count": {count},\n  "equidimensional": {"true" if len(dims) <= 1 else "false"}\n}}\n'
    )
    return 0


def cmd_affine_compare(args: argparse.Namespace) -> int:
    from .affine import compare_ne_ir
    from .conegeom import build_cone

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
    from . import selfcheck  # only this command needs it; keeps start-up short

    results = selfcheck.run_all()
    ok = all(r.ok for r in results)
    if args.json:
        print(selfcheck.to_json(results))
    else:
        for r in results:
            print(f"{r.name}: {r.checks} checks, {len(r.failures)} failures")
            for f in r.failures[: selfcheck.SHOWN_FAILURES]:
                print(f"  FAIL {f}")
        print("selfcheck PASS" if ok else "selfcheck FAIL")
    return 0 if ok else 3


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
    sp.add_argument("--json", action="store_true", help="print the results as one JSON object")
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
