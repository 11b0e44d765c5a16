"""Command line front end: run one verification suite, print a report.

Exit status is 0 only when every leaf of the chosen suite passed;
argparse exits 2 on an unknown suite name or a bad option before any
check runs.
"""

from __future__ import annotations

import argparse
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from .gf2m import MAX_M
from .report import emit_json, emit_markdown
from .suites import SUITE_NAMES, SuiteConfig, run_suite


def _precision(text: str) -> Fraction:
    try:
        value = Fraction(Decimal(text))
    except (InvalidOperation, ValueError, ZeroDivisionError,
            OverflowError) as ex:
        raise argparse.ArgumentTypeError(
            f"not a decimal precision: {text!r}") from ex
    if value <= 0:
        raise argparse.ArgumentTypeError("precision must be positive")
    return value


def _ext_bound(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if not 1 <= value <= MAX_M:
        raise argparse.ArgumentTypeError(
            f"extension bound must be between 1 and {MAX_M}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="verify",
        description="run a named verification suite over the bundled "
                    "surface data and print the report")
    ap.add_argument("suite", metavar="SUITE", choices=SUITE_NAMES,
                    help=f"one of: {', '.join(SUITE_NAMES)}")
    ap.add_argument("--data", metavar="DIR", default=None,
                    help="directory holding the model data files "
                         "(default: the bundled data)")
    ap.add_argument("--format", choices=("json", "md"), default="md",
                    help="report format (default: md)")
    ap.add_argument("--precision", metavar="P", type=_precision,
                    default=Fraction(1, 10 ** 9),
                    help="interval width for real-root isolation "
                         "(default: 1e-9)")
    ap.add_argument("--ext-bound", metavar="N", type=_ext_bound, default=10,
                    help="largest field-extension degree searched when "
                         f"locating singular points, 1 to {MAX_M} "
                         "(default: 10)")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = SuiteConfig(data_dir=args.data, precision=args.precision,
                         ext_bound=args.ext_bound)
    report = run_suite(args.suite, config)
    text = emit_json(report) if args.format == "json" \
        else emit_markdown(report)
    sys.stdout.write(text)
    return 0 if report.ok() else 1


if __name__ == "__main__":
    raise SystemExit(main())
