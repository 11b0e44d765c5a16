"""Exact verification toolkit for an order-31 surface automorphism.

Arithmetic lives in gf2m/unipoly/multipoly, the hyperbolic-lattice and
mod-2 machinery in lattice/mod2space, the cuspidal-cubic group law in
cubic, and the surface checks in surface. suites/cli wrap everything
into named report-producing runs.
"""

from .errors import SalemsurfError
from .gf2m import (FieldCtx, FieldElement, dlog, embed, ext_context,
                   field_make, format_elem, frobenius, gf32, parse_elem,
                   unembed)
from .lattice import (char_poly, coxeter_matrix, dynamical_degree,
                      e10_basis, e10_parity_check, lehmer_polynomial,
                      mod2_reduce_and_factor, real_roots,
                      restrict_to_basis, salem_certify, trace_polynomial,
                      weyl2_membership)
from .mod2space import (Mod2QuadSpace, enumerate_lagrangians,
                        mod2_action_analysis, standard_space)
from .multipoly import (MultiPoly, ProjPoint, linear_solve, parse_field,
                        resultant)
from .report import Report, emit_json, emit_markdown, parse_json
from .suites import SUITE_NAMES, SuiteConfig, run_suite
from .unipoly import UniPoly, factor as gf2_factor, uni_roots

__version__ = "0.1.0"

__all__ = [
    "FieldCtx", "FieldElement", "Mod2QuadSpace", "MultiPoly", "ProjPoint",
    "Report", "SalemsurfError", "SUITE_NAMES", "SuiteConfig", "UniPoly",
    "char_poly", "coxeter_matrix", "dlog",
    "dynamical_degree", "e10_basis", "e10_parity_check", "embed",
    "emit_json", "emit_markdown", "enumerate_lagrangians", "ext_context",
    "field_make", "format_elem", "frobenius", "gf2_factor", "gf32",
    "lehmer_polynomial", "linear_solve", "mod2_action_analysis",
    "mod2_reduce_and_factor", "parse_elem", "parse_field", "parse_json",
    "real_roots", "restrict_to_basis", "resultant", "run_suite",
    "salem_certify", "standard_space", "trace_polynomial", "unembed",
    "uni_roots", "weyl2_membership", "__version__",
]
