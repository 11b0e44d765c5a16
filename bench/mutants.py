"""Seeded single-coefficient mutants of the branch polynomial s.

Each mutant copies the model data files and changes the exponent k of
one coefficient g^k of s to another value, so that s keeps its
monomials and its degree and the model still loads. A mutant is kept
only when the brute-force singular set of its s differs from the eleven
marked points: the verifier must then reject it on grounds this file
can check without the program.

    python3 bench/mutants.py SEED COUNT OUTDIR
"""

from __future__ import annotations

import random
import shutil
import sys
from pathlib import Path

import checker

DATA_FILES = ("surface.poly", "automorphism.poly", "cubic.poly",
              "points.dat", "alpha_table.dat", "e10_basis.dat")
POWERS = [checker.gf_pow(checker.gf_parse("g"), k) for k in range(31)]


class Mutant:
    __slots__ = ("directory", "change", "singular")

    def __init__(self, directory: Path, change: str, singular: list):
        self.directory = directory
        self.change = change        # e.g. "x^8*y^3*z: g^16 -> g^3"
        self.singular = singular    # brute-force singular set, rendered


def make_mutants(data_dir: Path, out_dir: Path, seed: int,
                 count: int) -> list:
    """Write `count` distinct mutants under out_dir/m<i>/."""
    text = (data_dir / "surface.poly").read_text()
    lines = text.splitlines()
    s_line = next(i for i, ln in enumerate(lines) if ln.startswith("s ="))
    s = checker.parse_poly_text(text)["s"]
    marked = checker.parse_point_text((data_dir / "points.dat").read_text())
    marked = sorted(v for k, v in marked.items() if k != "cusp")
    if checker.singular_points(s) != marked:
        raise ValueError("the unmutated model is not singular exactly at "
                         "the marked points")
    rng = random.Random(seed)
    monomials = sorted(s)
    seen = set()
    mutants = []
    while len(mutants) < count:
        if len(seen) == len(monomials) * (len(POWERS) - 1):
            raise ValueError(f"s has fewer than {count} such mutants")
        mono = rng.choice(monomials)
        new = rng.choice([c for c in POWERS if c != s[mono]])
        if (mono, new) in seen:
            continue
        seen.add((mono, new))
        mutated = dict(s)
        mutated[mono] = new
        singular = checker.singular_points(mutated)
        if singular == marked:
            continue
        target = out_dir / f"m{len(mutants)}"
        target.mkdir(parents=True)
        for name in DATA_FILES:
            shutil.copyfile(data_dir / name, target / name)
        lines[s_line] = f"s = {checker.format_poly(mutated)}"
        (target / "surface.poly").write_text("\n".join(lines) + "\n")
        mono_text = checker.format_poly({mono: 1})
        change = (f"{mono_text}: {checker.gf_format(s[mono])} -> "
                  f"{checker.gf_format(mutated[mono])}")
        mutants.append(Mutant(target, change, singular))
    return mutants


if __name__ == "__main__":
    seed, count, out = int(sys.argv[1]), int(sys.argv[2]), Path(sys.argv[3])
    root = Path(__file__).resolve().parent.parent
    for m in make_mutants(root / "src" / "salemsurf" / "data", out, seed,
                          count):
        print(m.directory, m.change, len(m.singular), "singular points")
