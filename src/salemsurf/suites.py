"""Named verification suites and the report trees they produce.

run_suite is the single entry point behind the CLI. Every suite is a
deterministic function of the suite name, the bundled (or supplied)
data and the interval width of the Salem check, so two runs on the same
inputs emit byte-identical JSON. The node names `lattice.coxeter`,
`lattice.salem`, `lattice.mod2` and `lattice.lagrangians` are part of
the external interface; everything else follows the library layout.

A suite is a list of (node name, check) pairs over one table of run
objects (`_run_objects`), so every shared object is built at most once
per run, a failed build included. Each check runs in its own guard,
`_guarded`, the one place where an exception becomes a leaf; a check
that goes on past a part that raises runs that part in it too. The
`salem` and `lagrangians` suites run one check of the lattice list.

This module holds only that runner and the entry points; `import
salemsurf.cli` compiles nothing else of the suites. The checks of each
primary suite live in their own module (`lattice_checks`,
`cubic_checks`, and `surface` itself), which its entry point imports
inside the suite's guard when the suite first runs, so a suite's
markdown time includes compiling its checks. The lattice, finite-field,
polynomial-ring, census, cubic and surface modules are registered
through `_lazy`: each is in sys.modules from the start but executes on
the first attribute access, so a suite runs only the modules it uses.
The data reader and Lehmer's coefficients live in the package root, so
the cubic and surface suites execute no lattice code; `fractions` is
imported only with lattice, and `decimal` only when the CLI parses a
--precision.
"""

from __future__ import annotations

import sys
import time
from importlib.util import LazyLoader, find_spec, module_from_spec

from . import report as rp


def _lazy(name: str):
    """The package module `name`, registered in sys.modules and on the
    package now and executed by importlib's LazyLoader on its first
    attribute access. A module already imported is returned as is."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = find_spec(full)
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[full] = module
    setattr(sys.modules[__package__], name, module)
    spec.loader.exec_module(module)
    return module


# the check modules bind these placeholders, and bench/traced.py finds
# every layer in sys.modules after importing cli
for _name in ("lattice", "gf2m", "unipoly", "multipoly", "mod2space",
              "cubic", "surface"):
    _lazy(_name)

SUITE_NAMES = ("all", "lattice", "cubic", "surface", "salem", "lagrangians")


def _guarded(name: str, build) -> rp.Report:
    """Run one check and time it. build() returns either the check's
    report, which gets the measured time, or a list of child reports,
    which become a node called `name`. Any escape becomes an error leaf
    called `name`, so a suite always reports."""
    t0 = time.perf_counter()
    try:
        out = build()
        if not isinstance(out, rp.Report):
            out = rp.node(name, out)
    except Exception as ex:  # noqa: BLE001 - suites report, never raise
        out = rp.error_leaf(name, ex)
    out.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return out


def _run_checks(checks) -> list:
    """The reports of (node name, check) pairs, each check run in its
    own guard, in order."""
    return [_guarded(name, check) for name, check in checks]


def _run_objects(builders: dict):
    """need(key) for one run. builders[key](need) builds the object on
    first use, inside the guard of the check that asks, and the object
    is kept for the rest of the run. A build that raises is kept too:
    later calls re-raise its exception without building again, so every
    check that needs the object reports the cause in its own leaf."""
    got = {}
    failed = {}

    def need(key):
        if key in failed:
            raise failed[key]
        if key not in got:
            try:
                got[key] = builders[key](need)
            except Exception as ex:  # noqa: BLE001 - kept for later needs
                failed[key] = ex
                raise
        return got[key]
    return need


# ---------------------------------------------------------------------------
# entry points: each imports its suite's check module, inside the
# suite's guard, the first time the suite runs


def lattice_suite(data_dir=None, precision=None) -> list:
    from .lattice_checks import _lattice_checks
    return _run_checks(_lattice_checks(data_dir, precision))


def cubic_suite(data_dir=None) -> list:
    from .cubic_checks import _cubic_checks
    return _run_checks(_cubic_checks(data_dir))


def surface_suite(data_dir=None) -> list:
    from .surface import _surface_reports
    return _surface_reports(data_dir)


# ---------------------------------------------------------------------------
# dispatch


def run_suite(name: str, data_dir=None, precision=None) -> rp.Report:
    """Execute one named suite and return its report tree.

    data_dir overrides the bundled data files; precision is the interval
    width of the Salem check, None for lattice.DEFAULT_PRECISION. `all`
    chains the three primary suites; `salem` and `lagrangians` run the
    matching check of the lattice list. The root and each top-level
    suite node carry their measured wall time.
    """
    if name not in SUITE_NAMES:
        raise ValueError(f"no suite named {name!r}; "
                         f"choose one of {', '.join(SUITE_NAMES)}")
    primary = {"lattice": lambda: lattice_suite(data_dir, precision),
               "cubic": lambda: cubic_suite(data_dir),
               "surface": lambda: surface_suite(data_dir)}
    if name in primary:
        return _guarded(name, primary[name])
    if name == "all":
        return _guarded("all", lambda: [
            _guarded(suite, primary[suite])
            for suite in ("lattice", "cubic", "surface")])

    def lattice_node():
        from .lattice_checks import _lattice_checks
        return _run_checks([check for check
                            in _lattice_checks(data_dir, precision)
                            if check[0] == f"lattice.{name}"])
    return _guarded(name, lattice_node)
