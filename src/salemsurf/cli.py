"""Command line front end: run one verification suite, print a report.

Exit status is 0 only when every leaf of the chosen suite passed;
argparse exits 2 on an unknown suite name or a bad option before any
check runs.
"""

from __future__ import annotations

import argparse
import sys

from .report import emit_json, emit_markdown
from .suites import SUITE_NAMES, run_suite

# largest |decimal exponent| of a --precision: converting 1e999999999
# to a Fraction would build a billion-digit integer
MAX_PRECISION_EXPONENT = 1000


def _precision(text: str):
    """The Fraction that a --precision argument spells. fractions and
    decimal are imported here, so a run without the option skips them."""
    from decimal import Decimal, InvalidOperation
    from fractions import Fraction
    try:
        dec = Decimal(text)
        if dec.is_finite() and abs(dec.adjusted()) > MAX_PRECISION_EXPONENT:
            raise argparse.ArgumentTypeError(
                f"precision {text!r} has a decimal exponent outside "
                f"[-{MAX_PRECISION_EXPONENT}, {MAX_PRECISION_EXPONENT}]")
        value = Fraction(dec)
    except (InvalidOperation, ValueError, ZeroDivisionError,
            OverflowError) as ex:
        raise argparse.ArgumentTypeError(
            f"not a decimal precision: {text!r}") from ex
    if value <= 0:
        raise argparse.ArgumentTypeError("precision must be positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="verify",
        description="run a named verification suite over the bundled "
                    "surface data and print the report")
    ap.add_argument("suite", metavar="SUITE", choices=SUITE_NAMES,
                    help=f"one of: {', '.join(SUITE_NAMES)}")
    ap.add_argument("--data", metavar="DIR", default=None,
                    help="directory holding the model data files; every "
                         "suite but salem reads them (default: the bundled "
                         "data)")
    ap.add_argument("--format", choices=("json", "md"), default="md",
                    help="report format (default: md)")
    ap.add_argument("--precision", metavar="P", type=_precision,
                    help="width of the isolating interval of the Salem "
                         "number, a positive decimal whose exponent lies in "
                         f"[-{MAX_PRECISION_EXPONENT}, "
                         f"{MAX_PRECISION_EXPONENT}]; only the all, lattice "
                         "and salem suites read it (default: 1e-9)")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report = run_suite(args.suite, args.data, args.precision)
    text = emit_json(report) if args.format == "json" \
        else emit_markdown(report)
    sys.stdout.write(text)
    return 0 if report.ok() else 1


if __name__ == "__main__":
    raise SystemExit(main())
