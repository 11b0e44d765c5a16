"""Run the `verify` CLI with the public functions of each layer traced.

    python3 bench/traced.py SPANS_FILE VERIFY_ARGS...

Each function named in LAYERS is replaced, by identity, in every loaded
salemsurf module namespace (modules bind one another's functions by
name, as surface does with resultant and uni_roots). The wrapper keeps
one span per call in memory: function, parent span, start, end and,
for the functions in SIZES, a size taken from the result. The spans
are written to SPANS_FILE when the CLI returns; the report goes to
stdout and the exit status is the CLI's, so the output is checked the
same way as an untraced run.
"""

from __future__ import annotations

import json
import sys
import time

LAYERS = {
    "lattice": ("real_roots", "salem_certify", "dynamical_degree",
                "sign_vector_target", "restrict_to_basis", "char_poly"),
    "mod2space": ("enumerate_lagrangians", "mod2_action_analysis"),
    "multipoly": ("resultant", "linear_solve"),
    "unipoly": ("uni_roots",),
    "gf2m": ("field_make", "ext_context"),
    "cubic": ("all_point_set_matches", "cusp_parametrization"),
    "surface": ("load_model", "derive_sigma_inverse", "singular_locus",
                "verify_multiplicities", "verify_chart_smoothness"),
    "suites": ("lattice_suite", "cubic_suite", "surface_suite"),
    "report": ("emit_json",),
}

# span size taken from a result: (metric suffix, how to aggregate, size)
SIZES = {
    "multipoly.resultant": (
        "max_degree", max,
        lambda r: max((sum(e) for e in r.terms), default=0)),
    "unipoly.uni_roots": ("roots", sum, len),
    "mod2space.enumerate_lagrangians": (
        "members", sum, lambda r: len(r.members)),
    "report.emit_json": ("bytes", sum, lambda r: len(r.encode())),
}

FUNCTIONS = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]

# Functions seen calling another function of FUNCTIONS on some workload;
# each reports total_s besides self_s.
PARENTS = ("lattice.salem_certify", "lattice.dynamical_degree",
           "lattice.sign_vector_target", "mod2space.mod2_action_analysis",
           "unipoly.uni_roots", "gf2m.ext_context", "surface.load_model",
           "surface.derive_sigma_inverse", "surface.singular_locus",
           "suites.lattice_suite", "suites.cubic_suite",
           "suites.surface_suite")


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for qual in FUNCTIONS:
        units[f"{qual}.calls"] = "count"
        units[f"{qual}.self_s"] = "s"
        if qual in PARENTS:
            units[f"{qual}.total_s"] = "s"
        if qual in SIZES:
            units[f"{qual}.{SIZES[qual][0]}"] = "count"
    units["trace.overhead_s"] = "s"
    units["trace.covered_s"] = "s"
    return units


def install(spans: list) -> None:
    """Wrap every function in FUNCTIONS wherever salemsurf binds it."""
    import salemsurf.cli  # noqa: F401 - loads every module to be patched

    clock = time.perf_counter
    stack = []

    def wrap(index, fn, size):
        def traced(*args, **kwargs):
            span = [index, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if size is not None:
                span[4] = size(result)
            return result
        traced.__wrapped__ = fn
        return traced

    modules = [m for name, m in list(sys.modules.items())
               if name == "salemsurf" or name.startswith("salemsurf.")]
    for index, qual in enumerate(FUNCTIONS):
        mod, name = qual.split(".")
        original = getattr(sys.modules[f"salemsurf.{mod}"], name)
        size = SIZES[qual][2] if qual in SIZES else None
        wrapper = wrap(index, original, size)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)


def main(argv) -> int:
    spans_file, cli_args = argv[0], argv[1:]
    spans: list = []
    install(spans)
    from salemsurf import cli
    try:
        status = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_file, "w") as fh:
            json.dump(spans, fh)
    return status


def summarize(traces: list) -> dict:
    """Span lists of one operation's traced children -> metrics.

    self_s is a span's duration minus that of its direct child spans;
    total_s sums the outermost spans of a function (a recursive call
    inside one is not counted twice) and is reported for the functions
    in PARENTS. covered_s is the summed self time.
    """
    n = len(FUNCTIONS)
    calls = [0] * n
    self_s = [0.0] * n
    total_s = [0.0] * n
    sizes = [[] for _ in range(n)]
    for spans in traces:
        for fid, parent, start, end, size in spans:
            dur = end - start
            calls[fid] += 1
            self_s[fid] += dur
            if parent >= 0:
                self_s[spans[parent][0]] -= dur
            if not _inside_same(spans, parent, fid):
                total_s[fid] += dur
            if size is not None:
                sizes[fid].append(size)
    out = {}
    for fid, qual in enumerate(FUNCTIONS):
        out[f"{qual}.calls"] = calls[fid]
        out[f"{qual}.self_s"] = self_s[fid]
        if qual in PARENTS:
            out[f"{qual}.total_s"] = total_s[fid]
        if qual in SIZES:
            suffix, agg, _ = SIZES[qual]
            out[f"{qual}.{suffix}"] = agg(sizes[fid] or [0])
    out["trace.covered_s"] = sum(self_s)
    return out


def _inside_same(spans, parent, fid) -> bool:
    while parent >= 0:
        if spans[parent][0] == fid:
            return True
        parent = spans[parent][1]
    return False


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
