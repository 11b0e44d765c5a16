"""Independent checks of `verify ... --format json` reports.

Nothing here imports salemsurf: the field GF(32), the parser for the
model's polynomial files, the singular-point search and the real-root
check are written again from their definitions, so that a fault in the
program cannot hide itself by being repeated in its own check.

Each `check_*` function returns a list of problems; an empty list means
the report passed.

Regenerate the expected leaf-name lists (after a change that adds or
renames a check on purpose) with

    python3 bench/checker.py --write-leaves
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
LEAF_FILES = {"all": HERE / "leaves_all.txt",
              "salem": HERE / "leaves_salem.txt"}

# ---------------------------------------------------------------------------
# GF(32) = GF(2)[t] / (t^5 + t^2 + 1); the generator g is t.


def _tables():
    """Powers of t (doubled, so a sum of two logarithms needs no
    reduction) and their logarithms."""
    exp, log = [0] * 62, [None] * 32
    v = 1
    for k in range(31):
        exp[k] = exp[k + 31] = v
        log[v] = k
        v <<= 1
        if v & 0b100000:
            v ^= 0b100101
    if v != 1 or None in log[1:]:
        raise RuntimeError("t^5 + t^2 + 1 is not primitive")
    return exp, log


_EXP, _LOG = _tables()


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def gf_pow(a: int, e: int) -> int:
    if e == 0:
        return 1
    if a == 0:
        return 0
    return _EXP[(_LOG[a] * e) % 31]


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(32)")
    return _EXP[(31 - _LOG[a]) % 31]


def gf_format(a: int) -> str:
    """Render as the program's witnesses do: 0, 1, g, g^k."""
    if a == 0:
        return "0"
    k = _LOG[a]
    return "1" if k == 0 else ("g" if k == 1 else f"g^{k}")


def gf_parse(text: str) -> int:
    text = text.strip()
    if text in ("0", "1"):
        return int(text)
    if text == "g":
        return _EXP[1]
    if text.startswith("g^"):
        return _EXP[int(text[2:]) % 31]
    raise ValueError(f"not a field element: {text!r}")


# ---------------------------------------------------------------------------
# polynomial files: `label = c*x^a*y^b*z^c + ...`, one header line naming
# the variables and the field. A polynomial is {(a, b, c): coefficient}.

VARS = ("x", "y", "z")


def parse_poly_text(text: str) -> dict:
    """-> {label: {exponents: coefficient}} for a three-variable file."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    header = lines[0].replace(" ", "")
    if not header.startswith("vars:xyz;") or "field:g^5=g^2+1" not in header:
        raise ValueError(f"unexpected header {lines[0]!r}")
    out = {}
    for ln in lines[1:]:
        label, eq, body = ln.partition("=")
        if not eq:
            raise ValueError(f"no `=` in {ln!r}")
        poly = {}
        for term in body.split("+"):
            coeff, exps = 1, [0, 0, 0]
            for factor in term.strip().split("*"):
                base, _, power = factor.partition("^")
                if base in VARS:
                    exps[VARS.index(base)] += int(power or 1)
                else:
                    coeff = gf_mul(coeff, gf_parse(factor))
            key = tuple(exps)
            poly[key] = poly.get(key, 0) ^ coeff
        out[label.strip()] = {e: c for e, c in poly.items() if c}
    return out


def format_poly(poly: dict) -> str:
    terms = []
    for exps in sorted(poly, reverse=True):
        parts = [] if poly[exps] == 1 else [gf_format(poly[exps])]
        parts += [v if e == 1 else f"{v}^{e}"
                  for v, e in zip(VARS, exps) if e]
        terms.append("*".join(parts) or "1")
    return " + ".join(terms)


def partial(poly: dict, var: int) -> dict:
    """Formal derivative; in characteristic 2 only odd exponents survive."""
    out = {}
    for exps, c in poly.items():
        if exps[var] % 2:
            e = list(exps)
            e[var] -= 1
            out[tuple(e)] = c
    return out


def evaluate(poly: dict, pt) -> int:
    acc = 0
    for exps, c in poly.items():
        v = c
        for coord, e in zip(pt, exps):
            if e:
                v = gf_mul(v, gf_pow(coord, e))
        acc ^= v
    return acc


def plane_points():
    """All 1057 points of P^2(GF(32)), last nonzero coordinate 1."""
    pts = [(x, y, 1) for x in range(32) for y in range(32)]
    pts += [(x, 1, 0) for x in range(32)]
    pts.append((1, 0, 0))
    return pts


def format_point(pt) -> str:
    return "(" + " : ".join(gf_format(c) for c in pt) + ")"


def singular_points(s: dict) -> list:
    """Common zeros of the three partials of s, rendered as the program
    renders points, sorted as its witness is."""
    ds = [partial(s, i) for i in range(3)]
    return sorted(format_point(p) for p in plane_points()
                  if all(evaluate(d, p) == 0 for d in ds))


def parse_point_text(text: str) -> dict:
    """points.dat -> {label: rendered point}, normalised to last
    nonzero coordinate 1."""
    out = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#") or ln.startswith("field:"):
            continue
        label, _, body = ln.partition("=")
        coords = [gf_parse(c) for c in body.strip()[1:-1].split(":")]
        last = [c for c in coords if c][-1]
        scale = gf_inv(last)
        out[label.strip()] = format_point(
            tuple(gf_mul(c, scale) for c in coords))
    return out


# ---------------------------------------------------------------------------
# Lehmer's number

LEHMER = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)  # low degree first
# The largest real root of LEHMER, truncated to 20 decimals.
LAMBDA_LO = Fraction("1.17628081825991750654")
LAMBDA_HI = LAMBDA_LO + Fraction(1, 10 ** 20)


def lehmer_value(x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(LEHMER):
        acc = acc * x + c
    return acc


def parse_precision(text: str) -> Fraction:
    """The CLI's reading of --precision: an exact decimal."""
    return Fraction(Decimal(text))


def check_lambda(witness, precision: Fraction) -> list:
    """An interval witness must bracket Lehmer's number to `precision`."""
    try:
        lo = Fraction(*witness["lo"])
        hi = Fraction(*witness["hi"])
    except (TypeError, KeyError, ValueError, ZeroDivisionError):
        return [f"lambda witness is not an exact interval: {witness!r}"]
    problems = []
    if not lo > 1:
        problems.append(f"lambda lower end {lo} is not above 1")
    if not 0 <= hi - lo <= precision:
        problems.append(f"lambda width {float(hi - lo):.3g} exceeds "
                        f"precision {float(precision):.3g}")
    if not lehmer_value(lo) * lehmer_value(hi) < 0:
        problems.append("Lehmer's polynomial does not change sign on "
                        "the lambda interval")
    if not (lo <= LAMBDA_HI and LAMBDA_LO <= hi):
        problems.append("lambda interval misses 1.17628081825991750654")
    return problems


# ---------------------------------------------------------------------------
# Lagrangian census: a 10-dimensional quadratic space of plus type over
# GF(2) has prod_{i<5} (2^i + 1) maximal totally singular subspaces,
# split evenly between the two families.

CENSUS = math.prod(2 ** i + 1 for i in range(5))


# ---------------------------------------------------------------------------
# report trees


def leaves(report: dict, prefix: str = "") -> list:
    """[(slash path, node)] for every leaf, in report order."""
    path = f"{prefix}/{report['name']}"
    kids = report.get("children") or []
    if not kids:
        return [(path, report)]
    out = []
    for k in kids:
        out.extend(leaves(k, path))
    return out


def _leaf(report: dict, name: str):
    for path, node in leaves(report):
        if path.rsplit("/", 1)[1] == name:
            return node
    return None


def read_leaf_list(suite: str) -> list:
    return LEAF_FILES[suite].read_text().split()


def check_passing(report: dict, suite: str, precision: Fraction) -> list:
    """A suite that must pass: every leaf passes, the leaf names are the
    expected ones, and lambda is bracketed to the requested width."""
    problems = []
    got = leaves(report)
    failing = [p for p, n in got if n.get("status") != "pass"]
    if report.get("status") != "pass" or failing:
        problems.append(f"not passing: {failing[:5]}")
    names = [p for p, _ in got]
    want = read_leaf_list(suite)
    if names != want:
        extra = sorted(set(names) - set(want))[:3]
        missing = sorted(set(want) - set(names))[:3]
        problems.append(f"leaf names differ: extra {extra}, "
                        f"missing {missing}")
    lam = _leaf(report, "salem.lambda10_interval")
    if lam is None:
        problems.append("no salem.lambda10_interval leaf")
    else:
        problems += check_lambda(lam.get("witness"), precision)
    return problems


def check_census(report: dict) -> list:
    problems = []
    count = _leaf(report, "lagrangians.count")
    if count is None or count.get("witness") != f"{CENSUS} members":
        problems.append(f"census count is not {CENSUS}: "
                        f"{count and count.get('witness')!r}")
    sizes = _leaf(report, "lagrangians.class_sizes")
    if sizes is None or sizes.get("witness") != [CENSUS // 2] * 2:
        problems.append(f"class sizes are not {CENSUS // 2} twice: "
                        f"{sizes and sizes.get('witness')!r}")
    return problems


def check_singular(report: dict, expected: list) -> list:
    node = _leaf(report, "singular.matches_marked_points")
    if node is None:
        return ["no singular.matches_marked_points leaf"]
    if node.get("witness") != expected:
        return [f"singular set {node.get('witness')} differs from the "
                f"brute-force set {expected}"]
    return []


def check_all(report: dict, precision: Fraction, singular: list) -> list:
    return (check_passing(report, "all", precision) + check_census(report)
            + check_singular(report, singular))


def check_salem(report: dict, precision: Fraction) -> list:
    return check_passing(report, "salem", precision)


def check_mutant(report: dict, singular: list) -> list:
    """A mutant must be rejected, and the singular set the program
    reports must still be the true one."""
    problems = []
    if report.get("status") == "pass":
        problems.append("mutant reported as pass")
    node = _leaf(report, "singular.matches_marked_points")
    if node is not None and node.get("status") != "fail":
        problems.append("mutant singular set accepted as the marked points")
    return problems + check_singular(report, singular)


def parse_report(text: str):
    """-> (report dict, problems); schema 1 is required."""
    try:
        report = json.loads(text)
    except ValueError as ex:
        return None, [f"output is not JSON: {ex}"]
    if not isinstance(report, dict) or report.get("schema") != 1:
        return None, ["output is not a schema-1 report"]
    return report, []


# ---------------------------------------------------------------------------


def _write_leaves(root: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for suite, path in LEAF_FILES.items():
        out = subprocess.run(
            [sys.executable, "-m", "salemsurf.cli", suite, "--format", "json"],
            cwd=root, env=env, capture_output=True, text=True, check=False)
        report, problems = parse_report(out.stdout)
        if problems:
            raise SystemExit(f"{suite}: {problems}")
        path.write_text("\n".join(p for p, _ in leaves(report)) + "\n")
        print(f"wrote {path.relative_to(root)}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-leaves"]:
        raise SystemExit("usage: python3 bench/checker.py --write-leaves")
    _write_leaves(HERE.parent)
