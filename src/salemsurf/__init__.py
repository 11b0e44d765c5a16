"""Exact verification toolkit for an order-31 surface automorphism.

Arithmetic lives in gf2m/unipoly/multipoly, the hyperbolic-lattice and
mod-2 machinery in lattice/mod2space, the cuspidal-cubic group law in
cubic, and the surface checks in surface. suites/cli wrap everything
into named report-producing runs.
"""

__version__ = "0.1.0"
