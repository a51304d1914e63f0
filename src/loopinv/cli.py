"""Command line interface.

Subcommands:

* ``dims``      dimension table of all invariant spaces per level,
* ``check``     exact verification of the explicit shuffle identities,
* ``fuzz``      seeded path-signature fuzzing of the invariance claims,
* ``basis``     export the exact basis of one space as JSON,
* ``evidence``  exact observations on the open conjectures.

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 budget
or configuration trouble.  Output is byte-identical for identical
arguments (there are no timestamps and no floats anywhere).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .invariants import (
    ConjectureEvidence,
    CrossCheckError,
    InvariantReport,
    InvariantSpaces,
    conjecture_evidence,
    default_level_cap,
    spaces_for,
    verify_relations,
)
from .linalg import Budget, BudgetExceeded
from .paths import fuzz_closure, fuzz_conjugation, fuzz_loop
from .tensor import tensor_to_json

EXIT_OK = 0
EXIT_MATH_FAILURE = 1
EXIT_BUDGET_OR_CONFIG = 2

# highest level of each column with a published reference value; deeper
# cells are computed but marked "new" and never asserted against anything
PUBLISHED_MAX_LEVEL = {
    2: {"conjugation": 13, "min_generators": 12, "V_n": 13, "bracket_VR": 13,
        "letter_reduced_conj": 11, "letter_reduced_loop": 11},
    3: {"conjugation": 10, "min_generators": 7, "V_n": 10, "bracket_VR": 10,
        "letter_reduced_conj": 9, "letter_reduced_loop": 9},
    4: {"conjugation": 10, "min_generators": 5, "V_n": 10, "bracket_VR": 8,
        "letter_reduced_conj": 8, "letter_reduced_loop": 8},
    5: {"conjugation": 10, "min_generators": 5, "V_n": 10, "bracket_VR": 8,
        "letter_reduced_conj": 8, "letter_reduced_loop": 8},
    6: {"conjugation": 10, "min_generators": 4, "V_n": 8, "bracket_VR": 7,
        "letter_reduced_conj": 7, "letter_reduced_loop": 7},
}

TABLE_COLUMNS = {
    "all": list(InvariantReport.COLUMNS),
    "conj": ["conjugation", "logsignature", "min_generators", "letter_reduced_conj"],
    "loop": ["V_n", "bracket_VR", "letter_reduced_loop", "loop", "S_n"],
    "closure": ["closure", "S_n", "letter_reduced_loop"],
}

FUZZ_DEFAULT_LEVEL = {2: 6, 3: 5}


def _new_columns(d: int, level: int, columns) -> list[str]:
    extent = PUBLISHED_MAX_LEVEL.get(d, {})
    return [col for col in columns if level > extent.get(col, level)]


def _level_budget(args) -> Budget | None:
    """A fresh budget for one level, or None when no budget was asked for."""
    if args.budget_secs is None and args.budget_bits is None:
        return None
    return Budget(args.budget_secs, args.budget_bits)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# dims
# ---------------------------------------------------------------------------


def cmd_dims(args) -> int:
    columns = TABLE_COLUMNS[args.table]
    spaces = InvariantSpaces(args.d)
    rows = []
    any_skipped = False
    for n in range(1, (args.max_level or default_level_cap(args.d)) + 1):
        spaces.budget = _level_budget(args)
        try:
            report = spaces.report(n)
        except BudgetExceeded as exc:
            any_skipped = True
            rows.append(
                {"level": n, "status": "skipped", "dims": {}, "new_columns": [],
                 "reason": str(exc)}
            )
            continue
        rows.append(
            {
                "level": n,
                "status": "ok",
                "dims": {col: report.dims[col] for col in columns},
                "new_columns": _new_columns(args.d, n, columns),
            }
        )

    if args.format == "json":
        text = json.dumps(
            {"command": "dims", "d": args.d, "columns": columns, "rows": rows},
            sort_keys=True, indent=2,
        ) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["d", "level", "status"] + columns + ["new_columns"])
        for row in rows:
            writer.writerow(
                [args.d, row["level"], row["status"]]
                + [row["dims"].get(col, "") for col in columns]
                + [";".join(row["new_columns"])]
            )
        text = buf.getvalue()
    else:
        widths = {col: max(len(col), 6) for col in columns}
        header = "level  " + "  ".join(col.rjust(widths[col]) for col in columns)
        lines = [header, "-" * len(header)]
        starred = False
        for row in rows:
            if row["status"] == "skipped":
                lines.append("%5d  skipped (%s)" % (row["level"], row["reason"]))
                continue
            cells = []
            for col in columns:
                cell = str(row["dims"][col])
                if col in row["new_columns"]:
                    cell += "*"
                    starred = True
                cells.append(cell.rjust(widths[col]))
            lines.append("%5d  %s" % (row["level"], "  ".join(cells)))
        if starred:
            lines.append("* computed beyond the published tables")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_BUDGET_OR_CONFIG if any_skipped else EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    all_ok = True
    results = []
    for d in dict.fromkeys(args.d):  # each alphabet once, in the order given
        for check in verify_relations(d):
            results.append({"d": d, "name": check.name, "holds": check.holds})
            all_ok = all_ok and check.holds
    if args.format == "json":
        text = json.dumps({"command": "check", "results": results}, sort_keys=True, indent=2) + "\n"
    else:
        lines = [
            "d=%d  %-88s %s" % (r["d"], r["name"], "PASS" if r["holds"] else "FAIL")
            for r in results
        ]
        lines.append("%d identities, %d failed" % (len(results), sum(not r["holds"] for r in results)))
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK if all_ok else EXIT_MATH_FAILURE


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------


def cmd_fuzz(args) -> int:
    level = args.level or FUZZ_DEFAULT_LEVEL.get(args.d, 4)
    reports = [
        fuzz_conjugation(args.d, level, args.trials, args.seed),
        fuzz_loop(args.d, level, args.trials, args.seed),
        fuzz_closure(args.d, level, args.trials, args.seed),
    ]
    ok = all(r.ok for r in reports)
    if args.format == "json":
        text = json.dumps(
            {"command": "fuzz", "reports": [r.to_json() for r in reports]},
            sort_keys=True, indent=2,
        ) + "\n"
    else:
        lines = []
        for r in reports:
            lines.append(
                "%-12s d=%d level=%d trials=%d seed=%d: %d exact checks, %d failures"
                % (r.kind, r.d, r.level, r.trials, r.seed, r.checks, len(r.failures))
            )
            for failure in r.failures:
                lines.append("  FAILURE %s" % failure)
            if r.kind == "conjugation":
                lines.append(
                    "  non-invariance witness for 12-21: %s"
                    % (r.witness if r.witness_found else "not found")
                )
        lines.append("fuzz %s" % ("PASS" if ok else "FAIL"))
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK if ok else EXIT_MATH_FAILURE


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------


def cmd_basis(args) -> int:
    subspace = spaces_for(args.d).space(args.space, args.n)
    payload = {
        "command": "basis",
        "space": args.space,
        "d": args.d,
        "n": args.n,
        "dim": subspace.dim,
        "elements": [tensor_to_json(t) for t in subspace.basis_tensors()],
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# evidence
# ---------------------------------------------------------------------------


def _evidence_json(ev: ConjectureEvidence) -> dict:
    return {
        "level": ev.level,
        "loop_dim": ev.loop_dim,
        "s_plus_area_conj_dim": ev.s_plus_area_conj_dim,
        "loop_matches_s_plus_area_conj": ev.loop_matches_s_plus_area_conj,
        "closure_conj_intersection_dim": ev.closure_conj_intersection_dim,
        "area_product_membership": [
            {"product": label, "in_closed_rotation_image": value}
            for label, value in ev.area_product_membership
        ],
    }


def cmd_evidence(args) -> int:
    spaces = spaces_for(args.d)
    evidence = []
    try:
        for n in range(1, (args.max_level or min(default_level_cap(args.d), 6)) + 1):
            spaces.budget = _level_budget(args)
            evidence.append(conjecture_evidence(spaces, n))
    finally:
        spaces.budget = None
    if args.format == "json":
        text = json.dumps(
            {"command": "evidence", "d": args.d,
             "levels": [_evidence_json(ev) for ev in evidence]},
            sort_keys=True, indent=2,
        ) + "\n"
    else:
        lines = []
        for ev in evidence:
            lines.append(
                "level %d: dim loop = %d, dim(S + area/conj algebra) = %d (%s); "
                "dim(closure invariants ^ conjugation invariants) = %d"
                % (
                    ev.level,
                    ev.loop_dim,
                    ev.s_plus_area_conj_dim,
                    "equal" if ev.loop_matches_s_plus_area_conj else "DIFFER",
                    ev.closure_conj_intersection_dim,
                )
            )
            for label, value in ev.area_product_membership:
                lines.append(
                    "  %s: %s image of closed rotations"
                    % (label, "in" if value else "NOT in")
                )
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _d_type(value: str) -> int:
    d = int(value)
    if not 2 <= d <= 9:
        raise argparse.ArgumentTypeError("d must be between 2 and 9")
    return d


_d_type.__name__ = "int"


def _int_at_least(low: int):
    def parse(value: str) -> int:
        number = int(value)
        if number < low:
            raise argparse.ArgumentTypeError("must be at least %d" % low)
        return number

    parse.__name__ = "int"
    return parse


def _seconds(value: str) -> float:
    seconds = float(value)
    if seconds != seconds:  # NaN, the one float unequal to itself, bounds nothing
        raise argparse.ArgumentTypeError("must be a number, not nan")
    return seconds


_seconds.__name__ = "float"


def _add_budget_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget-secs", type=_seconds, default=None,
                   help="wall-clock budget per (d, level) cell")
    p.add_argument("--budget-bits", type=_int_at_least(0), default=None,
                   help="largest allowed coefficient bit size during elimination")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopinv",
        description="Exact computations with conjugation, loop and closure "
        "invariants of path signatures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="dimension table per level")
    p.add_argument("--d", type=_d_type, default=2)
    p.add_argument("--max-level", type=_int_at_least(1), default=None)
    p.add_argument("--table", choices=sorted(TABLE_COLUMNS), default="all")
    p.add_argument("--workers", type=_int_at_least(1), default=1,
                   help="accepted for compatibility; levels are computed serially")
    _add_budget_options(p)
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.add_argument("--format", choices=["pretty", "csv", "json"], default="pretty")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("check", help="verify the explicit shuffle identities")
    p.add_argument("--d", type=_d_type, nargs="+", default=[2, 3, 4])
    p.add_argument("--format", choices=["pretty", "json"], default="pretty")
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("fuzz", help="seeded exact fuzzing against path signatures")
    p.add_argument("--d", type=_d_type, default=2)
    p.add_argument("--level", type=_int_at_least(1), default=None)
    p.add_argument("--trials", type=_int_at_least(0), default=25,
                   help="random trials per suite; the conjugation suite runs "
                   "the canonical axis pair in addition")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--format", choices=["pretty", "json"], default="pretty")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("basis", help="export the exact basis of a space")
    p.add_argument("--space", choices=list(InvariantSpaces.SPACES), required=True)
    p.add_argument("--d", type=_d_type, default=2)
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("evidence", help="exact observations on the conjectures")
    p.add_argument("--d", type=_d_type, default=2)
    p.add_argument("--max-level", type=_int_at_least(1), default=None)
    _add_budget_options(p)
    p.add_argument("--format", choices=["pretty", "json"], default="pretty")
    p.add_argument("--out")
    p.set_defaults(func=cmd_evidence)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out:
            # fail before any computation; append mode truncates nothing
            open(args.out, "a").close()
        return args.func(args)
    except CrossCheckError as exc:
        sys.stderr.write("cross-check failed: %s\n" % exc)
        return EXIT_MATH_FAILURE
    except BudgetExceeded as exc:
        sys.stderr.write("budget exceeded: %s\n" % exc)
        return EXIT_BUDGET_OR_CONFIG
    except OSError as exc:
        sys.stderr.write("cannot write output: %s\n" % exc)
        return EXIT_BUDGET_OR_CONFIG


if __name__ == "__main__":
    sys.exit(main())
