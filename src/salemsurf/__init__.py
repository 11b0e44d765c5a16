"""Exact verification toolkit for an order-31 surface automorphism.

Arithmetic lives in gf2m/unipoly/multipoly, the hyperbolic-lattice and
mod-2 machinery in lattice/mod2space, the cuspidal-cubic group law in
cubic, and the surface checks in surface. suites/cli wrap everything
into named report-producing runs; `suites` says which modules a run
executes, and when.

Lehmer's coefficients and the data-file reader live here, because the
lattice half and the surface half both use them. The bundled model
data is the directory `<package>/data`, read exactly like a directory
given with `--data`.
"""

import os

from .errors import ParseError

__version__ = "0.1.0"

MAX_M = 20  # largest GF(2^m) degree: gf2m keeps tables of 2^m entries

# Lehmer's degree-10 Salem polynomial, low degree first: its largest
# root is lambda10, and its reduction mod 2 gives the cubic multipliers
LEHMER = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)


def _read_data(data_dir, name: str) -> str:
    """Text of the model data file `name` in data_dir, or in the
    package's `data` directory when data_dir is None, read as UTF-8
    with or without a byte-order mark. Every suite reads its data
    through here; a file that is missing, or cannot be read or decoded,
    is a ParseError naming it."""
    if data_dir is None:
        data_dir = os.path.join(os.path.dirname(__file__), "data")
    p = os.path.join(data_dir, name)
    if not os.path.exists(p):
        raise ParseError(f"missing data file {p}")
    try:
        with open(p, encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as ex:
        raise ParseError(f"cannot read data file {p}: {ex}") from ex


def content_lines(text: str) -> list:
    """The lines of a data file's text, stripped, without blank lines
    and `#` comments: the line rule of every data-file parser."""
    return [ln for ln in map(str.strip, text.splitlines())
            if ln and not ln.startswith("#")]
