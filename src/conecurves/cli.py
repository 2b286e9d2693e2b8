"""Command-line front end.

Commands: roots, gp, ne, classify, affine-compare, selfcheck.
Exit codes: 0 success, 2 invalid input, 3 internal inconsistency.
All output is deterministic; classify emits JSON (default) or TSV.
Every integer, in an option or a comma-separated field, is read by
rootsys.parse_decimal.  A reader that closes stdout early
(`conecurves ne ... | head -1`) ends the run with exit code 0 and
nothing on stderr: stdout is pointed at os.devnull so that the
interpreter's final flush does not fail again.

The rows of one run are bounded: ne, classify and affine-compare refuse a
degree above _MAX_DEGREE while parsing, and ne and classify refuse, from
the count alone and before enumerating, a request for more than
_MAX_CLASSES classes or components (exit code 2).  The enumerator's work
is not bounded yet: it can walk prefixes from which no row is reachable.

ne and classify write through one batch writer, _write_rows, straight
from a checked stream: ne from components.checked_solutions, the
enumerator with every vector checked to be nonnegative and of the
requested degree, and classify from components.iter_rows, which walks
every stratum through the enumerator, makes the same two checks on each
vector, the degree by the dot product that also gives its dimension, and
yields each component as the flat row its template prints.  The writer
refuses the request from the count alone before it takes a row, takes
_WRITE_BATCH rows at a time, lays each batch out by hand with one
%-template per row and writes it in one stdout write while the
enumeration runs, so neither command builds a record, a class list or a
component list, memory stays flat as the degree grows, and the writes
stay few when stdout is unbuffered (python -u, PYTHONUNBUFFERED=1).
When the rows end it compares their number (before the
--exclude-vertex-stratum filter) with the count from the generating
function; a mismatch exits 3 before the last batch or the footer is
written.  Writing starts before the last row is checked, so on exit code
3 stdout may hold a truncated document.
The JSON footer's "equidimensional" is components.equidimensional's
verdict, with or without the vertex component as
--exclude-vertex-stratum says; it is decided from ell, the Chern degrees
and the degree, so the writer collects nothing for it.

Each command imports the modules it uses when it runs, so roots loads
none of parabolic, components, conegeom and affine, gp loads none of the
last three, and ne and classify do not load affine.

python -m conecurves and the conecurves script both run entry(), which
calls main(), freezes the heap with gc.freeze() once main() returns and
exits with main's code.  The interpreter's shutdown collections then
skip the 13,500-14,300 objects the imports and the run leave, which
saves 4-6 ms of a 50-65 ms process (medians of 20 interleaved runs,
Python 3.11, Linux: roots --type A1 went from 1.53x to 1.40x a bare
interpreter).  atexit hooks and the final flush of stdout still run.
What this gives up: an object still in an unreachable cycle at exit is
never finalized, so its __del__ or a generator's finally clause does not
run; no generator on the CLI path holds a finally.  main() called in
process, as tests and library callers do, does not freeze, so the
caller's heap stays within the collector's reach.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from collections.abc import Iterator
from itertools import islice
from typing import TYPE_CHECKING, NoReturn

from .errors import InputError, InternalError
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


def _fmt(vec) -> str:
    return ",".join(str(v) for v in vec)


def _expanded_lambda(cone: ConeSpace) -> list[int]:
    lam = [0] * cone.parabolic.rs.rank
    for i, l in zip(cone.parabolic.alpha_p, cone.ell):
        lam[i - 1] = l
    return lam


def _make_cone(args: argparse.Namespace) -> ConeSpace:
    from .conegeom import build_cone
    from .parabolic import build_parabolic, minimal_ample, parse_alpha_p, parse_lambda

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
                "e": c.vertex_multiplicity,  # equal to e: components._stratum_base has the proof
                "dimension": c.dimension,
            }
            for c in report.components
        ],
        "count": len(report.components),
        "equidimensional": report.equidimensional,
    }


def _write_rows(
    rows: Iterator[tuple], total: int, what: str, row: str, head: str = "", sep: str = "", exclude: bool = False
) -> int:
    """Write head, then the rows laid out by the template row and joined by sep, _WRITE_BATCH rows to a write.

    total is the generating-function count of the rows; over
    _MAX_CLASSES it is refused with InputError before a row is taken.
    With exclude, a batch whose last row has alpha_prime (its fifth
    field from the end) 0 loses that row: of iter_rows' rows only the
    vertex row beta = 0 has it, and the stream ends with it.  Every row
    of the stream is counted, the vertex row and anything after it
    included, and when the rows end (a batch is short, or lost the
    vertex row) their number is compared with total; a mismatch raises
    InternalError before that last batch is written.  So when the count
    or a row's check fails (exit code 3), stdout holds head and full
    batches only, and no footer: nothing when the failure comes within
    the first batch.  head goes out with the first batch,
    alone when no row is written.  Returns the number of rows written.
    """
    if total > _MAX_CLASSES:
        raise InputError(f"the request has {total} {what}, more than the limit {_MAX_CLASSES}")
    taken = written = 0
    while True:
        batch = list(islice(rows, _WRITE_BATCH))
        taken += len(batch)
        if exclude and batch and not batch[-1][-5]:
            del batch[-1]
            taken += len(list(rows))  # nothing may follow the vertex row, but whatever does is counted
        final = len(batch) < _WRITE_BATCH
        if final and taken != total:
            raise InternalError(f"enumerated {taken} {what}, but the generating function counts {total}")
        if batch or not written:
            sys.stdout.write(head + sep.join(map(row.__mod__, batch)))
            head = sep
        written += len(batch)
        if final:
            return written


def _json_list(items: list[str], indent: str) -> str:
    """Printed items as a JSON list in the json.dumps(indent=2) layout, items at `indent`.

    `items` must be nonempty: the marked nodes, lambda, ell and a class's
    coefficients always are.  An empty components list is closed by
    cmd_classify, not here.
    """
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
    from .parabolic import build_parabolic, kappa, minimal_ample, parse_alpha_p

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
    row = "ne " + ",".join(["%d"] * len(cone.ell)) + "\n"
    count = _write_rows(checked_solutions(cone.ell, args.degree), total, "effective classes", row)
    sys.stdout.write(f"count {count}\n")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    from .components import count_components, equidimensional, iter_rows
    from .conegeom import has_lines

    cone = _make_cone(args)
    beta_slots = ["%d"] * len(cone.ell)
    if args.format == "tsv":
        head, sep = "beta\talpha_prime\tvertex_multiplicity\trelative_degree\te\tdimension\n", ""
        row = ",".join(beta_slots) + "\t%d\t%d\t%d\t%d\t%d\n"
    else:
        head, sep = _json_head(cone, args.degree, "lines" if has_lines(cone) else "no_lines"), ","
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
    rows, total = iter_rows(cone, args.degree), count_components(cone, args.degree)
    count = _write_rows(rows, total, "components", row, head, sep, args.exclude_vertex_stratum)
    if args.format == "json":
        verdict = equidimensional(cone, args.degree, without_vertex=args.exclude_vertex_stratum)
        sys.stdout.write(
            ("\n  ]" if count else "]")
            + f',\n  "count": {count},\n  "equidimensional": {"true" if verdict else "false"}\n}}\n'
        )
    return 0


def cmd_affine_compare(args: argparse.Namespace) -> int:
    from .affine import compare_ne_ir
    from .conegeom import build_cone
    from .parabolic import build_parabolic, minimal_ample

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
        return exc.code
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


def entry() -> NoReturn:
    """Process entry: python -m conecurves and the conecurves script."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
