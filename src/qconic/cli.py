"""Command-line interface.

Commands:
  analyze    full pipeline on an arrangement file
  freeness   minimal relation degree, Tjurina number and verdict for an
             explicit reduced curve
  enumerate  admissible weak-combinatorics vectors for a given k
  verify     exhaustive/non-existence sweep (a) or the symbolic inequality
             derivation (b)
  generate   write a pencil-based arrangement file

Exit codes: 0 success, 2 parse or validation failure, an unreadable
input path, or an unwritable ``generate --output`` path (reported as
``output error``), 3 computation failure (a dimension cap was exceeded,
or a root did not certify at any precision).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import (ParseError, ValidationError, NotHomogeneousError,
                     NotReducedError, NonIsolatedError, NotSingularError,
                     EmptyWindowError, KTooSmallError, QConicError)
from .rationals import parse_rational, format_rational
from .arrangement import (arrangement_from_document, arrangement_to_document,
                          pencil_members, ArrangementPolynomial)
from .parsing import parse_homogeneous_form, parse_conic
from .report import analyze_arrangement
from .freeness import freeness_report
from .combinatorics import (enumerate_admissible, check_tacnode_inequality,
                            discriminant_condition, freeness_equation_roots,
                            tacnode_bound, verify_freeness_obstruction,
                            verify_tacnode_inequality_derivation)
from .rationals import QQ

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_COMPUTATION = 3


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ------------------------------------------------------------------ analyze

def cmd_analyze(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        arr = arrangement_from_document(fh.read())
    report = analyze_arrangement(arr, with_hilbert_tau=args.hilbert_tau)
    if args.json:
        sys.stdout.write(_dump_json(report.to_json()))
    else:
        sys.stdout.write(report.to_text())
    return EXIT_OK


# ----------------------------------------------------------------- freeness

def cmd_freeness(args) -> int:
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    elif args.polynomial is not None:
        text = args.polynomial
    else:
        raise ParseError("give a polynomial literal or --file")
    form = parse_homogeneous_form(text)
    report = freeness_report(ArrangementPolynomial(form))
    if args.json:
        sys.stdout.write(_dump_json(report.to_json()))
    else:
        lines = [
            f"Curve: {form.to_string()} = 0  (degree {report.degree})",
            f"Total Tjurina number: {report.tau}",
            f"Minimal relation degree: {report.mdr} "
            f"(threshold {format_rational(report.dpw_threshold)}, "
            f"criterion value {report.dpw_value})",
            f"Verdict: {report.verdict}",
        ]
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------- enumerate

_FILTERS = {
    "tacnode-inequality": lambda wc: (wc.k >= 3
                                      and not check_tacnode_inequality(wc)),
    "discriminant": lambda wc: discriminant_condition(wc),
    "tacnode-bound": lambda wc: (wc.k >= 3 and wc.n3 == 0 and wc.n4 == 0
                                 and QQ(wc.t2) > tacnode_bound(wc.k)),
}

# accepted spelling aliases for the filter names
_FILTER_ALIASES = {"theorem-b": "tacnode-inequality"}


def cmd_enumerate(args) -> int:
    keep = _FILTERS.get(_FILTER_ALIASES.get(args.filter, args.filter))
    rows = []
    for wc in enumerate_admissible(args.k):
        if keep and not keep(wc):
            continue
        row = {
            "vector": wc.to_json(),
            "freeness_roots": freeness_equation_roots(wc),
            "discriminant_nonnegative": discriminant_condition(wc),
        }
        if wc.k >= 3:
            row["tacnode_inequality"] = check_tacnode_inequality(wc)
        rows.append(row)
    if args.json:
        sys.stdout.write(_dump_json({"k": args.k, "rows": rows}))
    else:
        for row in rows:
            v = row["vector"]
            flags = " ".join(f"{key}={row[key]}" for key in row if key != "vector")
            sys.stdout.write(
                f"({v['k']}; {v['n2']}, {v['t2']}, {v['n3']}, {v['n4']})  {flags}\n")
        sys.stdout.write(f"{len(rows)} vectors\n")
    return EXIT_OK


# ------------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    target = args.target.lower()
    if target in ("a", "nonfreeness"):
        kmin = args.kmin
        kmax = args.kmax if args.kmax is not None else max(kmin, 12)
        started = time.perf_counter()
        report = verify_freeness_obstruction(kmin, kmax, jobs=args.jobs)
        payload = report.to_json()
        payload["elapsed_seconds"] = round(time.perf_counter() - started, 3)
        if args.json:
            sys.stdout.write(_dump_json(payload))
        else:
            sys.stdout.write(
                f"k in [{report.k_min}, {report.k_max}]: "
                f"{report.vectors_checked} admissible vectors checked, "
                f"{len(report.counterexamples)} counterexamples\n")
            for wc, roots in report.counterexamples:
                sys.stdout.write(f"  COUNTEREXAMPLE {wc} roots={roots}\n")
        return EXIT_OK
    if target in ("b", "inequality"):
        k = args.k if args.k is not None else 3
        result = verify_tacnode_inequality_derivation(k)
        if args.json:
            sys.stdout.write(_dump_json(result))
        else:
            sys.stdout.write(
                "per-type summands: "
                + ", ".join(f"{n}={v}" for n, v in result["summands"].items())
                + f"\n  summands match: {result['summands_match']}\n"
                f"  count substitution: {result['count_substitution_ok']}\n"
                f"  implication to 8k + n2 + (3/4)n3 >= (5/2)t2: "
                f"{result['implication_ok']}\n"
                f"  weight window at k={k}: {result['alpha_window']}\n")
        return EXIT_OK
    raise ParseError(f"unknown verification target {args.target!r}")


# ----------------------------------------------------------------- generate

def cmd_generate(args) -> int:
    g1 = parse_conic(args.g1)
    g2 = parse_conic(args.g2)
    params = [parse_rational(p) for p in args.params.split(",") if p.strip()]
    arr = pencil_members(g1, g2, params)
    doc = arrangement_to_document(arr)
    if args.output == "-":
        sys.stdout.write(doc)
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(doc)
        except OSError as exc:
            sys.stderr.write(f"output error: {exc}\n")
            return EXIT_INPUT
        sys.stdout.write(f"wrote {args.output} ({arr.k} conics)\n")
    return EXIT_OK


# -------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qconic",
        description="Exact analysis of smooth-conic arrangements: "
                    "singularities, Milnor/Tjurina numbers, freeness, and "
                    "combinatorial constraints.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full pipeline on an arrangement file")
    p.add_argument("input", help="arrangement JSON document")
    p.add_argument("--json", action="store_true", help="structured output")
    p.add_argument("--no-hilbert-tau", dest="hilbert_tau",
                   action="store_false",
                   help="skip the Hilbert-function Tjurina cross-check")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("freeness", help="freeness of an explicit curve")
    p.add_argument("polynomial", nargs="?",
                   help="homogeneous polynomial literal in x, y, z")
    p.add_argument("--file", help="read the literal from a file instead")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_freeness)

    p = sub.add_parser("enumerate",
                       help="admissible weak-combinatorics vectors")
    p.add_argument("k", type=int)
    p.add_argument("--filter",
                   choices=sorted(_FILTERS) + sorted(_FILTER_ALIASES),
                   help="keep only rows flagged by this check")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run a built-in verifier")
    p.add_argument("target", choices=["a", "b", "nonfreeness", "inequality"],
                   help="a/nonfreeness: exhaustive non-freeness sweep; "
                        "b/inequality: symbolic derivation of the tacnode bound")
    p.add_argument("--kmin", type=int, default=2)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--k", type=int, default=None,
                   help="single k for the derivation check")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="write a pencil arrangement file")
    p.add_argument("--g1", required=True, help="first conic literal")
    p.add_argument("--g2", required=True, help="second conic literal")
    p.add_argument("--params", required=True,
                   help="comma-separated rational parameters")
    p.add_argument("--output", default="-", help="output path or - for stdout")
    p.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # input literals past 4300 digits reach int() through json.load and
    # Fraction, which Python's default int/str digit limit refuses; output
    # needs no lift (rationals.format_rational converts piecewise)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (ParseError, ValidationError, NotHomogeneousError, NotReducedError,
            EmptyWindowError, KTooSmallError, OSError, ValueError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except (NonIsolatedError, NotSingularError, QConicError) as exc:
        sys.stderr.write(f"computation error: {exc}\n")
        return EXIT_COMPUTATION


if __name__ == "__main__":
    sys.exit(main())
