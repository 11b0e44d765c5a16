import importlib
import json
import os
import random
import re
import runpy
import shutil
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import salemsurf.cli as cli
import salemsurf.cubic as cu
import salemsurf.cubic_checks as cubic_checks
import salemsurf.lattice as lat
import salemsurf.lattice_checks as lattice_checks
import salemsurf.mod2space as m2
import salemsurf.report as rp
import salemsurf.surface as sf
from salemsurf import LEHMER, _read_data
from salemsurf.cli import build_parser, main
from salemsurf.errors import InvariantViolation, NoSolution, ParseError
from salemsurf.gf2m import field_make
from salemsurf.multipoly import (MultiPoly, local_expansion, plane_zeros,
                                 resultant)
from salemsurf.suites import SUITE_NAMES, run_suite
from salemsurf.unipoly import uni_roots

GOLDEN = Path(__file__).parent / "golden" / "all.json"
SALEM_FINE_GOLDEN = Path(__file__).parent / "golden" / "salem_1.5e-30.json"
MUTANT_GOLDEN = Path(__file__).parent / "golden" / "surface_mutant.json"
MUTANT_VERDICTS = Path(__file__).parent / "golden" / "mutant_verdicts.json"


def test_node_status_is_worst_child():
    good = rp.leaf("a", True)
    bad = rp.leaf("b", False)
    err = rp.error_leaf("c", ValueError("boom"))
    assert rp.node("n", [good]).status == "pass"
    assert rp.node("n", [good, bad]).status == "fail"
    assert rp.node("n", [good, bad, err]).status == "error"
    assert not rp.node("n", [good, bad]).ok()


def _parse_json(text: str) -> rp.Report:
    """A schema-1 report document back into Report objects."""
    def build(obj):
        assert isinstance(obj, dict) and "name" in obj
        kids = [build(c) for c in obj.get("children", [])]
        return rp.Report(obj["name"], obj.get("status", "error"),
                         obj.get("witness"), kids)

    obj = json.loads(text)
    assert obj.get("schema") == 1
    return build(obj)


def test_json_shape_and_roundtrip():
    r = rp.node("top", [rp.leaf("child", True, witness="g^5")])
    r.elapsed_ms = 3.25
    text = rp.emit_json(r)
    obj = json.loads(text)
    assert obj["schema"] == 1
    assert obj["elapsed_ms"] == 0  # pinned for byte determinism
    assert list(obj) == ["schema", "name", "status", "witness",
                         "children", "elapsed_ms"] or "witness" not in obj
    back = _parse_json(text)
    assert back.name == "top" and back.ok()
    assert back.children[0].witness == "g^5"


def test_interval_witness():
    w = lattice_checks.interval_witness((Fraction(9, 8), Fraction(19, 16)))
    assert w["lo"] == [9, 8]
    assert w["hi"] == [19, 16]
    assert w["midpoint_decimal"].startswith("1.156")
    assert float(w["width_decimal"]) == pytest.approx(1 / 16, abs=1e-3)
    assert w["width_decimal"] == "6.25e-2"
    # widths below 1e-3 keep three significant digits, truncated on the
    # exact Fraction, also where a float would underflow to 0
    lo = Fraction(1263021911, 1073741824)
    for width, text in ((Fraction(9319, 10 ** 13), "9.31e-10"),
                        (Fraction(1, 3 * 10 ** 30), "3.33e-31"),
                        (Fraction(7, 10 ** 400), "7.00e-400"),
                        (Fraction(0), "0")):
        w = lattice_checks.interval_witness((lo, lo + width))
        assert w["width_decimal"] == text


@pytest.mark.parametrize("fr,text", [
    (Fraction(2, 3), "0.666666666666666"),
    (Fraction(-1, 3), "-0.333333333333333"),
    (Fraction(5), "5.000000000000000"),
    (Fraction(1, 10 ** 16), "0.000000000000000"),
    (Fraction(-1, 10 ** 16), "-0.000000000000000")])
def test_decimal_str_truncates_to_15_places(fr, text):
    """Truncation toward zero, the sign kept even where every printed
    digit is 0."""
    assert lattice_checks._decimal_str(fr) == text


def test_markdown_shape():
    r = rp.node("demo", [rp.leaf("check", True, witness="w")])
    text = rp.emit_markdown(r)
    assert text.splitlines()[0] == "# verification report: demo"
    assert "overall: **PASS**" in text
    assert "- [PASS] `check`" in text


def test_run_suite_lattice():
    rep = run_suite("lattice")
    assert rep.ok()
    names = {c.name for c in rep.children}
    assert names == {"lattice.coxeter", "lattice.salem", "lattice.mod2",
                     "lattice.lagrangians"}
    cox = next(c for c in rep.children if c.name == "lattice.coxeter")
    assert "coxeter.charpoly_e10" in {c.name for c in cox.children}


def test_run_suite_rejects_unknown():
    with pytest.raises(ValueError, match="no suite named 'bogus'"):
        run_suite("bogus")


def test_suite_names_all_run_clean():
    for name in SUITE_NAMES:
        if name in ("all", "surface"):
            continue  # covered elsewhere; keep this test quick
        assert run_suite(name).ok(), name


def test_cli_exit_codes(capsys):
    assert main(["salem", "--format", "md"]) == 0
    out = capsys.readouterr().out
    assert "1.17628" in out
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_cli_rejects_the_removed_ext_bound_option(monkeypatch, capsys):
    """The singular search takes its field from the model, so
    --ext-bound is an unknown option: argparse exits 2 and no suite
    runs."""
    def no_run(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "run_suite", no_run)
    with pytest.raises(SystemExit) as exc:
        main(["surface", "--ext-bound", "10"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --ext-bound" in capsys.readouterr().err


def test_readme_lists_exactly_the_cli_options():
    """README's "Options:" paragraph names each option that build_parser
    defines (apart from --help), and no other."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    paragraph = readme.split("\nOptions: ", 1)[1].split("\n\n", 1)[0]
    documented = set(re.findall(r"`(--[a-z][a-z-]*)", paragraph))
    defined = {opt for action in build_parser()._actions
               for opt in action.option_strings} - {"-h", "--help"}
    assert documented == defined == {"--data", "--format", "--precision"}


def test_precision_help_names_the_suites_that_read_it(capsys):
    """--help says that only all, lattice and salem read --precision, and
    another suite prints the same bytes with or without it."""
    (action,) = [a for a in build_parser()._actions
                 if "--precision" in a.option_strings]
    assert re.search(r"only the all, lattice and salem suites\s+read it",
                     action.help)
    outputs = []
    for extra in ([], ["--precision", "1e-3"]):
        assert main(["surface", "--format", "json"] + extra) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_data_help_names_the_suites_that_read_it(capsys):
    """--help says that every suite but salem reads --data; salem prints
    the same bytes with a directory that does not exist, and another
    suite reports the missing file."""
    (action,) = [a for a in build_parser()._actions
                 if "--data" in a.option_strings]
    assert re.search(r"every\s+suite but salem reads them", action.help)
    outputs = []
    for extra in ([], ["--data", "/nonexistent"]):
        assert main(["salem", "--format", "json"] + extra) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert main(["lagrangians", "--data", "/nonexistent"]) == 1
    assert "missing data file /nonexistent/" in capsys.readouterr().out


def test_readme_names_every_module():
    """README's module map names each module of the package, apart from
    __init__, as salemsurf.<name>."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    src = Path(sf.__file__).parent
    missing = [path.stem for path in sorted(src.glob("*.py"))
               if path.stem != "__init__"
               and not re.search(rf"\bsalemsurf\.{path.stem}\b", readme)]
    assert missing == []


def test_shared_objects_are_built_once(monkeypatch, tmp_path, model):
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    read = lattice_checks._read_data

    def counted_read(data_dir, name):
        calls[name] += 1
        return read(data_dir, name)

    monkeypatch.setattr(lattice_checks, "_read_data", counted_read)
    count(lat, "coxeter_matrix")
    count(lat, "gram_of")
    count(lat, "restrict_to_basis")
    count(lat, "char_poly")
    count(lat, "is_isometry_of")
    count(lat, "salem_certify")
    count(lat, "dynamical_degree")
    count(lat, "real_roots")
    count(m2, "Mod2QuadSpace")
    count(m2, "mod2_reduce_and_factor")
    count(cu, "all_point_set_matches")
    count(cu, "cusp_parametrization")
    count(sf, "resultant")  # surface imports it by name
    # char_poly: the Coxeter matrix only, since the restriction's is its
    # quotient by x - 1; is_isometry_of: the Coxeter matrix on the
    # ambient form and the restriction on the E10 form, once each;
    # salem_certify: Lehmer's coefficients only, with one real_roots on
    # its trace polynomial, since the Coxeter polynomial deflates to them
    # coxeter_matrix: one M for the restriction, its char poly and the
    # coxeter node
    per_run = {"e10_basis.dat": 1, "coxeter_matrix": 1, "gram_of": 1,
               "restrict_to_basis": 1, "char_poly": 1, "is_isometry_of": 2,
               "salem_certify": 1, "real_roots": 1, "Mod2QuadSpace": 1,
               "mod2_reduce_and_factor": 1}
    for runs in (1, 2):  # nothing is kept from one run to the next
        assert run_suite("lattice").ok()
        assert calls == {k: runs * v for k, v in per_run.items()}
    calls.clear()
    assert run_suite("salem").ok()
    assert calls == {"coxeter_matrix": 1, "char_poly": 1,
                     "salem_certify": 1, "real_roots": 1}
    calls.clear()
    assert run_suite("lagrangians").ok()
    assert calls == {"e10_basis.dat": 1, "coxeter_matrix": 1, "gram_of": 1,
                     "restrict_to_basis": 1, "Mod2QuadSpace": 1}
    # a failed build is kept: three checks need the restriction of a
    # basis with a singular Gram matrix, and it is attempted once
    calls.clear()
    row, mutant = BASIS_MUTANTS[1]
    report = run_suite("lattice", _with_basis_row(tmp_path, row, mutant))
    assert calls["restrict_to_basis"] == 1
    witnesses = {c.name: c.witness for c in report.children
                 if c.status == "error"}
    assert set(witnesses) == {"lattice.coxeter", "lattice.mod2",
                              "lattice.lagrangians"}
    assert len(set(witnesses.values())) == 1
    chart = cu.cusp_parametrization(model.g, model.cusp,
                                    plane_zeros([model.g]))
    action = cu.induced_affine_map(chart, list(model.f),
                                   model.g.substitute(list(model.f)))
    roots = cu.lehmer_mod2_roots(model.ctx)
    assert sf._surface_match(model, chart, action, roots).ok()
    assert calls["all_point_set_matches"] == 1
    assert sf.singular_locus(model).ok()
    assert calls["resultant"] == 1
    # the cubic check locates the cusp and the match reuses it; the plane
    # is read once for the orbit's base locus and once for the cubic; s
    # is expanded once at each marked point, for the multiplicities and
    # the charts, g at its cusp by the cubic check and the chart, and
    # two partials of s in the chart z = 1 by the singular locus, which
    # reads the line z = 0 directly. gamma is read off c once, and g o f
    # is taken once for k_f, K and the induced action; g's three
    # partials are taken once, to find the cusp and for the cubic
    # check's gradients at the cusp and at p0
    for name in ("load_model", "c_scalar", "derive_sigma_inverse",
                 "plane_zeros", "local_expansion"):
        count(sf, name)
    for name in ("find_cusp", "induced_affine_map", "local_expansion"):
        count(cu, name)
    substitute, partial = MultiPoly.substitute, MultiPoly.partial

    def counted_substitute(poly, images):
        if poly == model.g and list(images) == list(model.f):
            calls["g o f"] += 1
        return substitute(poly, images)

    def counted_partial(poly, i):
        if poly == model.g:
            calls["partial of g"] += 1
        return partial(poly, i)

    monkeypatch.setattr(MultiPoly, "substitute", counted_substitute)
    monkeypatch.setattr(MultiPoly, "partial", counted_partial)
    calls.clear()
    assert run_suite("surface").ok()
    for name in ("load_model", "c_scalar", "derive_sigma_inverse",
                 "find_cusp", "cusp_parametrization", "induced_affine_map",
                 "g o f"):
        assert calls[name] == 1, name
    assert calls["partial of g"] == 3
    assert calls["plane_zeros"] == 2
    assert calls["local_expansion"] == 15
    # the cubic suite charts the standard cubic once over GF(32), for the
    # group law and the orbits, and once over GF(8) for the group law,
    # and reads each chart's {parameter: point} table once
    count(cubic_checks, "plane_zeros")
    point_of = cubic_checks._point_of

    def counted_point_of(chart):
        calls[f"point_of GF(2^{chart.curve.ctx.m})"] += 1
        return point_of(chart)

    monkeypatch.setattr(cubic_checks, "_point_of", counted_point_of)
    calls.clear()
    assert run_suite("cubic").ok()
    assert calls == {"plane_zeros": 2, "find_cusp": 2,
                     "cusp_parametrization": 2, "local_expansion": 2,
                     "point_of GF(2^5)": 1, "point_of GF(2^3)": 1}


@pytest.mark.parametrize("module,name,leaves", [
    (sf, "_conjugation_scalar", ("derivation.conjugation_scalar", "alpha")),
    (cu, "find_cusp", ("cubic.cusp_location", "match",
                       "derivation.cubic_multiplier",
                       "derivation.inverse_cubic_multiplier", "alpha")),
    (sf, "derive_sigma_inverse", ("inverse", "derivation", "alpha")),
], ids=["conjugation_scalar", "find_cusp", "derive_sigma_inverse"])
def test_failed_surface_build_is_not_redone(monkeypatch, module, name,
                                            leaves):
    """A surface object whose build raises is attempted once per run,
    and every check that reads it, directly or through an object built
    from it, is an error leaf with its witness."""
    calls = Counter()

    def fail(*args):
        calls[name] += 1
        raise NoSolution(f"forced {name} failure")

    monkeypatch.setattr(module, name, fail)
    report = run_suite("surface")
    assert calls[name] == 1
    witness = f"NoSolution: forced {name} failure"
    assert {leaf.name: leaf.witness for leaf in _error_leaves(report)} \
        == dict.fromkeys(leaves, witness)
    if name == "find_cusp":  # the other cubic leaves are still reported
        cubic = next(c for c in report.children if c.name == "cubic")
        assert [c.status for c in cubic.children].count("pass") == 6
    names = [c.name for c in report.children]
    assert names[0] == "model" and names[-1] == "alpha"
    assert len(names) == 11


def test_a_map_that_moves_the_cubic_is_named_where_g_of_f_is_read(
        tmp_path):
    """fx = xy + g^28 xz in place of g^29 xz keeps the inverse but sends
    g off itself: the run's one g o f has no cubic multiplier, so the
    conjugation scalar is missing, and the induced action refuses it,
    so the match and the multiplier leaves name that refusal, and
    alpha, which reads K first, names the missing scalar."""
    copy = _with_line(tmp_path, "automorphism.poly", "fx = x*y + g^29*x*z",
                      "fx = x*y + g^28*x*z")
    moved = "InvariantViolation: map does not preserve the curve"
    no_scalar = ("NoSolution: conjugated derivation is not a scalar "
                 "multiple of g^2 d/dw")
    assert {leaf.name: leaf.witness for leaf
            in _error_leaves(run_suite("surface", copy))} == {
        "derivation.cubic_multiplier": moved,
        "derivation.inverse_cubic_multiplier": moved,
        "derivation.conjugation_scalar": no_scalar,
        "match": moved,
        "alpha": no_scalar}


def test_tail_that_c_does_not_divide_is_named(tmp_path):
    """A term g x^12 in eta breaks the equivariance identity and leaves
    eta(SI) with a term that c(SI) does not divide: the inverse is a
    NoSolution that names the division, and so is the derivation,
    which reads the inverse."""
    copy = _with_line(tmp_path, "automorphism.poly", "eta = ",
                      "eta = g*x^12 + ")
    report = run_suite("surface", copy)
    nodes = {c.name: c for c in report.children}
    for name in ("inverse", "derivation"):
        assert nodes[name].status == "error"
        assert nodes[name].witness \
            == "NoSolution: tail: c(SI) does not divide eta(SI)"
    identity = next(c for c in nodes["equivariance"].children
                    if c.name == "equivariance.identity")
    assert identity.status == "fail"


def test_lehmer_roots_are_found_once_per_suite(monkeypatch):
    """`verify all` finds Lehmer's mod-2 roots once in the cubic suite
    and once in the surface suite, solves beta and the orbit once per
    root and once more for the model's multiplier in `match`, and finds
    no roots of a polynomial over GF(2) by factoring it."""
    calls = Counter()
    for name in ("lehmer_mod2_roots", "beta_from_alpha", "orbit_points"):
        fn = getattr(cu, name)

        def counted(*args, fn=fn, name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(cu, name, counted)
    uni_roots = sf.uni_roots  # surface imports it by name
    degrees = Counter()

    def traced_uni_roots(f, *args):
        degrees[f.ctx.m] += 1
        return uni_roots(f, *args)

    monkeypatch.setattr(sf, "uni_roots", traced_uni_roots)
    assert run_suite("all").ok()
    assert calls == {"lehmer_mod2_roots": 2, "beta_from_alpha": 11,
                     "orbit_points": 11}
    assert degrees and 1 not in degrees  # the singular locus, in GF(32)


def test_failed_orbit_build_spares_the_beta_solver(monkeypatch):
    """With orbit_points raising, the orbits are attempted once, the two
    checks that read them are error leaves with one witness, and
    cubic.beta_solver, which reads only the roots and betas, passes."""
    calls = Counter()

    def fail(*args):
        calls["orbit_points"] += 1
        raise InvariantViolation("forced orbit_points failure")

    monkeypatch.setattr(cu, "orbit_points", fail)
    nodes = {c.name: c for c in run_suite("cubic").children}
    assert calls["orbit_points"] == 1
    for name in ("cubic.orbits", "cubic.alpha_table_fresh"):
        assert nodes[name].status == "error" and not nodes[name].children
        assert nodes[name].witness == ("InvariantViolation: forced "
                                       "orbit_points failure")
    beta = nodes["cubic.beta_solver"]
    assert len(beta.children) == 7
    assert all(c.status == "pass" for c in beta.children)
    assert nodes["cubic.group_law"].ok()


def test_failed_beta_solve_is_a_parameter_transport_error(monkeypatch):
    """With beta_from_alpha raising, the surface match keeps the three
    leaves built before the solve, with their golden witnesses, and
    ends in the error leaf match.parameter_transport."""
    def fail(*args):
        raise InvariantViolation("forced")

    monkeypatch.setattr(cu, "beta_from_alpha", fail)
    (match,) = [c for c in run_suite("surface").children
                if c.name == "match"]
    golden = _leaf_results(_parse_json(GOLDEN.read_text()))
    assert match.status == "error"
    assert [(c.name, c.status, c.witness) for c in match.children] == [
        *((name, *golden[f"all/surface/match/{name}"])
          for name in ("match.induced_action_affine",
                       "match.multiplier_is_root", "match.fixed_parameter")),
        ("match.parameter_transport", "error", "InvariantViolation: forced")]


def test_cubic_leaves_guard_the_chart(monkeypatch):
    """A chart parameter off by a constant c still reads the smooth
    points one to one, but three points with parameters summing to zero
    are no longer collinear: the sum rule, the chord closure and every
    chord of the orbits fail, so these leaves test the chart that the
    surface suite's match reads."""
    param_of = cu.CuspChart.param_of
    monkeypatch.setattr(cu.CuspChart, "param_of", lambda self, coords:
                        param_of(self, coords) ^ 1)
    nodes = {c.name: c for c in run_suite("cubic").children}
    status = {c.name: c.status for c in nodes["cubic.group_law"].children}
    assert status == {"group_law.parametrization": "pass",
                      "group_law.cusp_location": "pass",
                      "group_law.sum_rule_vs_determinant": "fail",
                      "group_law.chord_closure": "fail"}
    orbits = nodes["cubic.orbits"].children
    assert len(orbits) == 10
    for orbit in orbits:
        _, constraints = orbit.children
        chords = [c for c in constraints.children
                  if c.name.startswith("chord.")]
        assert len(chords) == 3
        assert all(c.status == "fail" for c in chords)
        assert all(c.status == "pass" for c in constraints.children
                   if c not in chords)


def _in_reciprocal_field(tmp_path):
    """A copy of the bundled model presented over t^5 + t^3 + 1, the
    reversal of the bundled t^5 + t^2 + 1. Then g -> g^-1 is a field
    isomorphism between the two, so each coefficient g^k becomes
    g^(-k mod 31)."""
    copy = tmp_path / "data"
    shutil.copytree(Path(sf.__file__).parent / "data", copy)

    def inverse(match):
        return f"g^{-int(match.group(1) or 1) % 31}"
    for name in MODEL_FILES:
        lines = []
        for ln in (copy / name).read_text().splitlines():
            if ln.startswith(("#", "vars:", "field:")):
                lines.append(ln.replace("g^5=g^2+1", "g^5=g^3+1"))
            else:
                label, eq, body = ln.partition("=")
                lines.append(label + eq + re.sub(r"\bg(?:\^(\d+))?\b",
                                                 inverse, body))
        (copy / name).write_text("\n".join(lines) + "\n")
    return copy


def test_roots_are_found_in_the_model_field(tmp_path):
    """The match and alpha nodes compare the model's multiplier with the
    roots in the field that the data declares, not in the bundled
    presentation of GF(32)."""
    copy = _in_reciprocal_field(tmp_path)
    assert sf.load_model(copy).ctx is field_make(5, 0b101001)
    report = run_suite("surface", copy)
    leaves = {leaf.name: leaf for node in report.children
              for leaf in node.children or [node]}
    for name in ("match.multiplier_is_root", "alpha.root_count",
                 "alpha.is_root"):
        assert leaves[name].status == "pass", name
    assert leaves["alpha.root_count"].witness == "10 roots"
    # the model itself verifies: the singular locus, orbit and match
    for name in ("singular", "orbit", "match"):
        assert next(c for c in report.children if c.name == name).ok()


def test_lattice_reads_the_basis_from_data(tmp_path, capsys):
    assert main(["lattice", "--data", str(tmp_path / "absent")]) == 1
    assert "missing data file" in capsys.readouterr().out
    bundled = Path(sf.__file__).parent / "data"
    same = tmp_path / "same"
    shutil.copytree(bundled, same)
    assert main(["lattice", "--data", str(same)]) == 0


def _basis_mutants(count, seed):
    """(row, mutated row) pairs of the bundled basis file: one entry of
    one row moved by a nonzero amount."""
    rows = lat.e10_basis(_read_data(None, "e10_basis.dat"))
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        row = rng.choice(rows)
        new = list(row)
        new[rng.randrange(len(row))] += rng.choice((-2, -1, 1, 2))
        out.append((" ".join(map(str, row)), " ".join(map(str, new))))
    return out


# the first pair was restricted silently when only integrality was
# checked; the second makes the basis Gram matrix singular
BASIS_MUTANTS = [("0 0 0 0 0 0 1 -1 0 0 0", "0 0 -2 0 0 0 1 -1 0 0 0"),
                 ("0 0 0 0 0 0 0 0 0 1 -1", "0 0 0 0 0 0 0 -1 0 1 -1"),
                 ("0 1 -1 0 0 0 0 0 0 0 0", "0 1 -1 1 0 0 0 0 0 0 0"),
                 *_basis_mutants(12, 29)]


def _with_basis_row(tmp_path, row, mutant):
    """tmp_path holding the bundled basis file with `row` replaced."""
    lines = _read_data(None, "e10_basis.dat").splitlines()
    lines[lines.index(row)] = mutant
    (tmp_path / "e10_basis.dat").write_text("\n".join(lines) + "\n")
    return tmp_path


@pytest.mark.parametrize("row,mutant", BASIS_MUTANTS)
def test_mutated_basis_is_rejected(tmp_path, capsys, row, mutant):
    _with_basis_row(tmp_path, row, mutant)
    for suite in ("lattice", "lagrangians"):
        assert main([suite, "--data", str(tmp_path), "--format",
                     "json"]) == 1
        out = capsys.readouterr().out
        assert "StopIteration" not in out
        nodes = {c["name"]: c for c in json.loads(out)["children"]}
        for name in ("lattice.coxeter", "lattice.mod2",
                     "lattice.lagrangians"):
            if name in nodes:
                assert nodes[name]["status"] == "error"
                assert nodes[name]["witness"].startswith(
                    "InvariantViolation: ")


def test_equivalent_basis_passes_every_lattice_leaf(tmp_path):
    """e2 - e3 - e4 + e6 in place of e2 - e3 spans the same lattice, in
    which 10h - 3(e1+...+e10) has other coordinates than in the bundled
    basis; its norm and its pairing with its Coxeter image do not
    depend on the basis."""
    data = _with_basis_row(tmp_path, "0 0 1 -1 0 0 0 0 0 0 0",
                           "0 0 1 -1 -1 0 1 0 0 0 0")
    report = run_suite("lattice", data)

    def leaves(r):
        return [r] if not r.children else [x for c in r.children
                                            for x in leaves(c)]
    assert [x.name for x in leaves(report) if not x.ok()] == []
    assert {x.name: x.witness for x in leaves(report)}[
        "coxeter.halfcone_preserved"] == "pairing 11"
    basis = lat.e10_basis((data / "e10_basis.dat").read_text())
    one = [[int(i == j) for j in range(10)] for i in range(10)]
    assert lat.halfcone_pairing(one, basis, lat.gram_of(basis)) == 10


def _with_line(tmp_path, name, old, new):
    """A copy of the bundled data whose file `name` has `old` replaced."""
    copy = tmp_path / "data"
    shutil.copytree(Path(sf.__file__).parent / "data", copy)
    text = (copy / name).read_text()
    assert old in text
    (copy / name).write_text(text.replace(old, new, 1))
    return copy


MODEL_FILES = ("surface.poly", "automorphism.poly", "cubic.poly",
               "points.dat")
PACKAGE_ERRORS = ("ParseError: ", "InvariantViolation: ", "NoSolution: ",
                  "DomainError: ")


def _model_sites(pattern):
    """(file, line, match): every number that `pattern` captures below
    the header of a model file."""
    return [(name, ln, m) for name in MODEL_FILES
            for ln in _read_data(None, name).splitlines()
            if not ln.startswith(("#", "vars:", "field:"))
            for m in re.finditer(pattern, ln)]


def _mutant(rng, name, ln, m, values):
    """(file, line, mutated line): the number m captured in the line
    changed to another of `values`, drawn by rng."""
    k = rng.choice([j for j in values if j != int(m.group(1))])
    return name, ln, f"{ln[:m.start(1)]}{k}{ln[m.end(1):]}"


def _model_mutants(per_file, seed, pattern, values):
    """Up to per_file distinct mutants of each model file at random
    sites of `pattern`; files with no such site give none."""
    rng = random.Random(seed)
    out = []
    for name in MODEL_FILES:
        sites = [(ln, m) for fname, ln, m in _model_sites(pattern)
                 if fname == name]
        mutants = set()
        while sites and len(mutants) < per_file:
            mutants.add(_mutant(rng, name, *rng.choice(sites), values))
        out += sorted(mutants)
    return out


def _error_leaves(report):
    if report.children:
        for c in report.children:
            yield from _error_leaves(c)
    elif report.status == "error":
        yield report


def _assert_rejected(tmp_path, mutants):
    for n, (name, line, mutant) in enumerate(mutants):
        copy = _with_line(tmp_path / str(n), name, line, mutant)
        report = run_suite("surface", copy)
        assert not report.ok(), (name, mutant)
        for leaf in _error_leaves(report):
            assert leaf.witness.startswith(PACKAGE_ERRORS), leaf.witness


def test_model_mutations_are_rejected(tmp_path):
    """One seeded mutant per coefficient g^k of every model file fails
    the surface suite, and only the package's own exceptions reach a
    leaf."""
    rng = random.Random(412)
    mutants = [_mutant(rng, *site, range(31))
               for site in _model_sites(r"g\^(\d+)")]
    assert len(mutants) == 82
    _assert_rejected(tmp_path, mutants)


def test_monomial_exponent_mutations_are_rejected(tmp_path):
    """Changing one exponent x^k of a monomial in a polynomial file fails
    the surface suite the same way."""
    mutants = _model_mutants(4, 413, r"[xyz]\^(\d+)", range(13))
    assert sorted({name for name, _, _ in mutants}) == [
        "automorphism.poly", "cubic.poly", "surface.poly"]
    _assert_rejected(tmp_path, mutants)


def test_non_integer_basis_entry_is_a_parse_error(tmp_path, capsys):
    copy = _with_line(tmp_path, "e10_basis.dat", "0 0 0 0 0 0 0 0 0 1 -1",
                      "0 0 0 0 0 0 0 0 0 1 x")
    assert main(["lattice", "--data", str(copy), "--format", "json"]) == 1
    nodes = {c["name"]: c for c in json.loads(capsys.readouterr().out)
             ["children"]}
    for name in ("lattice.coxeter", "lattice.mod2", "lattice.lagrangians"):
        assert nodes[name]["witness"].startswith(
            "ParseError: non-integer basis entry 'x'")


@pytest.mark.parametrize("name,old,new,message", [
    ("surface.poly", "x^8*y^3*z", "x^a*y^3*z", "bad exponent in 'x^a'"),
    ("cubic.poly", "weights: 1 1 1", "weights: 1 one 1", "bad weight 'one'"),
    ("points.dat", "g^5=g^2+1", "g^5=g^b+1", "bad modulus term 'g^b'"),
    ("points.dat", "g^5=g^2+1", "g^5=g^-2+1", "bad modulus term 'g^-2'"),
    ("points.dat", "(g^29 : g^6 : 1)", "(g^29 : g^6)",
     "points.dat: point 'p4' has 2 coordinates, expected 3"),
    ("points.dat", "(g^29 : g^6 : 1)", "(g^29 : g^6 : 1 : 1)",
     "points.dat: point 'p4' has 4 coordinates, expected 3"),
    ("points.dat", "(g^29 : g^6 : 1)", "(0 : 0 : 0)",
     "points.dat: point 'p4' has all-zero coordinates"),
    ("automorphism.poly", "weights: 1 1 1", "weights: 2 1 1",
     "automorphism.poly must declare 3 weight-1 variables"),
    ("cubic.poly", "weights: 1 1 1", "weights: 2 1 1",
     "cubic.poly must declare 3 weight-1 variables"),
])
def test_malformed_number_is_a_parse_error(tmp_path, name, old, new,
                                           message):
    copy = _with_line(tmp_path, name, old, new)
    report = run_suite("surface", copy)
    (model,) = report.children
    assert model.name == "model" and model.status == "error"
    assert model.witness == f"ParseError: {message}"


@pytest.mark.parametrize("name,label", [("automorphism.poly", "fz"),
                                        ("points.dat", "p5")])
def test_repeated_label_is_a_parse_error(tmp_path, capsys, name, label):
    """A second, identical definition of a label is refused; before, the
    later line silently won and the copy verified."""
    copy = tmp_path / "data"
    shutil.copytree(Path(sf.__file__).parent / "data", copy)
    text = (copy / name).read_text()
    line = next(ln for ln in text.splitlines()
                if ln.startswith(f"{label} ="))
    (copy / name).write_text(text + line + "\n")
    assert main(["surface", "--data", str(copy), "--format", "json"]) == 1
    children = json.loads(capsys.readouterr().out)["children"]
    assert [(c["name"], c["status"]) for c in children] == [
        ("model", "error")]
    assert children[0]["witness"] == (f"ParseError: {name} defines "
                                      f"{label!r} twice")


def test_cli_json_output(capsys):
    assert main(["lagrangians", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["status"] == "pass"
    assert obj["name"] == "lagrangians"


def test_cli_precision_validation(capsys):
    parser = build_parser()
    ns = parser.parse_args(["salem", "--precision", "0.0001"])
    assert ns.precision == Fraction(1, 10 ** 4)
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["salem", "--precision", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        parser.parse_args(["salem", "--precision", "0"])
    capsys.readouterr()
    for text in ("Infinity", "inf", "-Infinity"):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["salem", f"--precision={text}"])
        assert exc.value.code == 2
        assert "not a decimal precision" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["1e999999999", "1e-999999999"])
def test_precision_with_a_huge_exponent_is_refused_at_once(text):
    """A decimal exponent outside [-1000, 1000] exits 2 before the text
    becomes a Fraction, which for 1e999999999 would not return."""
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "salemsurf.cli", "salem",
         f"--precision={text}"],
        env=env, capture_output=True, text=True, timeout=10)
    assert time.perf_counter() - t0 < 1
    assert done.returncode == 2
    assert "decimal exponent outside [-1000, 1000]" in done.stderr
    assert done.stdout == ""


def test_precision_exponent_bound_is_inclusive(capsys):
    """The guard admits the exponent -1000 and refuses one step beyond
    it, either way, with argparse's exit status 2."""
    parser = build_parser()
    ns = parser.parse_args(["salem", "--precision", "1e-1000"])
    assert ns.precision == Fraction(1, 10 ** 1000)
    capsys.readouterr()
    for text in ("1e-1001", "1e1001"):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["salem", f"--precision={text}"])
        assert exc.value.code == 2
        assert ("has a decimal exponent outside [-1000, 1000]"
                in capsys.readouterr().err)


def test_default_precision_is_written_once(capsys):
    """No --precision, run_suite's default and --precision 1e-9 are one
    width, spelled once, in lattice, and no other width 1/10^k is
    spelled in the package, as a default or otherwise."""
    assert main(["salem", "--format", "json"]) == 0
    default = capsys.readouterr().out
    assert main(["salem", "--format", "json", "--precision", "1e-9"]) == 0
    assert capsys.readouterr().out == default
    assert rp.emit_json(run_suite("salem")) == default
    assert lat.DEFAULT_PRECISION == Fraction(1, 10 ** 9)
    spelled = [(path.name, m.group())
               for path in sorted(SRC_DIR.glob("salemsurf/*.py"))
               for m in re.finditer(r"Fraction\(1,\s*10\s*\*\*\s*\d+\)",
                                    path.read_text())]
    assert spelled == [("lattice.py", "Fraction(1, 10 ** 9)")]


def test_full_run_is_deterministic_and_matches_golden(capsys):
    assert main(["all", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["all", "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first == GOLDEN.read_text()


def test_bundled_directory_given_as_data_matches_golden(capsys):
    """The bundled files are <package>/data read by path: naming that
    directory with --data gives the golden bytes, and a file absent
    from it is a missing data file, as in any --data directory."""
    bundled = Path(sf.__file__).parent / "data"
    assert main(["all", "--format", "json", "--data", str(bundled)]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()
    with pytest.raises(ParseError,
                       match=f"^missing data file {re.escape(str(bundled))}"):
        _read_data(None, "absent.dat")


def test_fine_salem_run_matches_golden(capsys):
    assert main(["salem", "--format", "json", "--precision", "1.5e-30"]) == 0
    assert capsys.readouterr().out == SALEM_FINE_GOLDEN.read_text()


def test_surface_mutant_run_matches_golden(tmp_path, capsys):
    """The failure path, byte for byte: the coefficient of x^2*y^3*z^7
    in s moved from g^15 to g^19 (the first mutant that `bench/mutants.py
    1 12` lists), which leaves s singular at 5 points."""
    copy = _with_line(tmp_path, "surface.poly", "+ g^15*x^2*y^3*z^7 ",
                      "+ g^19*x^2*y^3*z^7 ")
    assert main(["surface", "--format", "json", "--data", str(copy)]) == 1
    assert capsys.readouterr().out == MUTANT_GOLDEN.read_text()


def _leaf_results(report, path=()):
    """{leaf path: (status, witness)} of a report tree; a path joins the
    node names from the root with `/`."""
    path = (*path, report.name)
    if not report.children:
        return {"/".join(path): (report.status, report.witness)}
    return {key: value for child in report.children
            for key, value in _leaf_results(child, path).items()}


def test_code_only_leaves_read_no_data_file(tmp_path):
    """With an empty data directory, the nine lattice.salem leaves and
    the 121 cubic leaves other than cubic.alpha_table_fresh still pass
    with their golden witnesses: they test the code, not the model
    data. Every node that reads a data file is an error leaf instead."""
    golden = _leaf_results(_parse_json(GOLDEN.read_text()))
    code_only = {path: result for path, result in golden.items()
                 if path.startswith(("all/lattice/lattice.salem/",
                                     "all/cubic/"))
                 and not path.startswith("all/cubic/cubic.alpha_table_fresh")}
    assert len(code_only) == 130
    assert all(status == "pass" for status, _ in code_only.values())
    got = _leaf_results(run_suite("all", tmp_path))
    missing = {path: result for path, result in got.items()
               if path not in code_only}
    assert {path: result for path, result in got.items()
            if path in code_only} == code_only
    assert sorted(missing) == [
        "all/cubic/cubic.alpha_table_fresh", "all/lattice/lattice.coxeter",
        "all/lattice/lattice.lagrangians", "all/lattice/lattice.mod2",
        "all/surface/model"]
    assert all(status == "error"
               and witness.startswith("ParseError: missing data file ")
               for status, witness in missing.values())


def test_bench_mutants_build_from_the_bundled_data(tmp_path):
    """bench/mutants.py copies and parses the bundled data files, among
    them alpha_table.dat, points.dat and the `s = ...` line of
    surface.poly: a change to their names or formats fails here."""
    script = Path(__file__).parent.parent / "bench" / "mutants.py"
    proc = subprocess.run([sys.executable, str(script), "1", "2",
                           str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m0", "m1"]


def _mutant_verdicts(out_dir):
    """{"SEED COUNT mI": {"passed": n, "others": [[path, status], ...]}}
    for the surface run of every mutant that `bench/mutants.py` builds
    with the seeds and counts of the benchmark's mutant workloads: the
    number of passing leaves and the status of every other leaf."""
    script = Path(__file__).parent.parent / "bench" / "mutants.py"
    verdicts = {}
    for seed, count in ((1, 12), (412, 24)):
        target = out_dir / f"{seed}_{count}"
        subprocess.run([sys.executable, str(script), str(seed), str(count),
                        str(target)], check=True, capture_output=True)
        for i in range(count):
            leaves = [(path, status) for path, (status, _)
                      in _leaf_results(run_suite("surface",
                                                 target / f"m{i}")).items()]
            verdicts[f"{seed} {count} m{i}"] = {
                "passed": sum(status == "pass" for _, status in leaves),
                "others": [[path, status] for path, status in leaves
                           if status != "pass"]}
    return verdicts


def test_bench_mutants_keep_their_verdicts(tmp_path):
    """Every mutant of `bench/mutants.py 1 12` and `412 24` keeps the
    verdict of each surface leaf that tests/golden/mutant_verdicts.json
    records; witnesses may change, statuses may not. Regenerate the file
    with `PYTHONPATH=src python tests/test_report_cli.py`."""
    assert _mutant_verdicts(tmp_path) == json.loads(
        MUTANT_VERDICTS.read_text())


@pytest.mark.parametrize("width", ["5", "1", "0.5"])
def test_coarse_precision_keeps_salem_verdict(capsys, width):
    assert main(["salem", "--format", "json", "--precision", width]) == 0
    salem = json.loads(capsys.readouterr().out)["children"][0]
    leaf = next(c for c in salem["children"]
                if c["name"] == "salem.lambda10_interval")
    lo, hi = (Fraction(*leaf["witness"][k]) for k in ("lo", "hi"))
    assert lo > 1 and hi - lo <= Fraction(width)


def test_coarse_precision_largest_root_witness(capsys):
    assert main(["salem", "--format", "json", "--precision", "5"]) == 0
    salem = json.loads(capsys.readouterr().out)["children"][0]
    leaf = next(c for c in salem["children"]
                if c["name"] == "salem.matches_largest_p10_root")
    assert (leaf["witness"]["lo"], leaf["witness"]["hi"]) == ([9, 8], [5, 4])
    # the straddling trace interval is halved only until it clears 2
    leaf = next(c for c in salem["children"]
                if c["name"] == "salem.one_trace_root_above_two")
    lo, hi = (Fraction(*leaf["witness"][k]) for k in ("lo", "hi"))
    assert lo >= 2 and hi - lo > Fraction(1, 10 ** 12)


@pytest.mark.parametrize("precision", [0, -1])
def test_non_positive_precision_is_an_error_not_a_hang(precision):
    """Bisection down to a width of zero or less never ends, so a library
    caller's non-positive precision is refused where it enters. The run
    is a child process with a timeout, so that a hang fails the test."""
    code = (
        "from salemsurf import LEHMER, lattice as lat\n"
        "from salemsurf.errors import DomainError\n"
        "from salemsurf.suites import run_suite\n"
        f"(node,) = run_suite('salem', precision={precision}).children\n"
        "print(node.name, node.status, node.witness, sep='|')\n"
        "full = lat.char_poly(lat.coxeter_matrix())\n"
        "for fn, p in ((lat.real_roots, [-2, 0, 1]),\n"
        "              (lat.salem_certify, list(LEHMER)),\n"
        "              (lat.dynamical_degree, full)):\n"
        "    try:\n"
        f"        fn(p, {precision})\n"
        "    except DomainError as ex:\n"
        "        print(ex)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "lattice.salem|error|DomainError: precision must be positive",
        *["precision must be positive"] * 3]


def test_non_isometric_restriction_is_the_mod2_error_leaf(monkeypatch):
    """A restriction that does not preserve the E10 form is refused by
    the one isometry check, which the mod-2 node runs first."""
    monkeypatch.setattr(lat, "restrict_to_basis", lambda m, basis, ge: tuple(
        tuple(2 * (i == j) for j in range(10)) for i in range(10)))
    node = next(c for c in run_suite("lattice").children
                if c.name == "lattice.mod2")
    assert node.status == "error"
    assert node.witness == ("InvariantViolation: matrix does not preserve "
                            "the sublattice form")


def test_largest_root_leaf_reads_p10_not_route_one(monkeypatch):
    """An enclosure of lambda moved one width to the right keeps its
    width and lies above 1, and the Coxeter polynomial still deflates
    to p10, so salem.lambda10_interval and salem.routes_agree pass; p10
    has one sign across it, so salem.matches_largest_p10_root fails."""
    salem_certify = lat.salem_certify

    def shifted(p, precision):
        cert = salem_certify(p, precision)
        lo, hi = cert.lambda_interval
        return lat.SalemCertificate(cert.trace_intervals,
                                    cert.interior_signs, (hi, 2 * hi - lo))

    monkeypatch.setattr(lat, "salem_certify", shifted)
    (salem,) = run_suite("salem").children
    status = {c.name: c.status for c in salem.children}
    assert status["salem.lambda10_interval"] == "pass"
    assert status["salem.routes_agree"] == "pass"
    assert status["salem.matches_largest_p10_root"] == "fail"


def test_routes_disagree_when_the_coxeter_polynomial_is_not_p10(
        monkeypatch):
    """diag(1) + [[2, 1], [1, 1]] has characteristic polynomial
    (x - 1)(x^2 - 3x + 1): it deflates to x^2 - 3x + 1, not p10, so
    route 2 certifies that remainder once, on its own, and its
    enclosure of (3 + sqrt 5) / 2 holds no root of p10. The
    lambda10_interval leaf states p10's own enclosure, which still
    passes."""
    monkeypatch.setattr(lat, "coxeter_matrix",
                        lambda: ((1, 0, 0), (0, 2, 1), (0, 1, 1)))
    calls = Counter()
    dynamical_degree = lat.dynamical_degree

    def counted(*args):
        calls["dynamical_degree"] += 1
        return dynamical_degree(*args)

    monkeypatch.setattr(lat, "dynamical_degree", counted)
    (salem,) = run_suite("salem").children
    status = {c.name: c.status for c in salem.children}
    assert calls["dynamical_degree"] == 1
    assert status["salem.routes_agree"] == "fail"
    assert status["salem.matches_largest_p10_root"] == "fail"
    assert status["salem.lambda10_interval"] == "pass"
    witness = {c.name: c.witness for c in salem.children}

    def ends(name):
        return tuple(Fraction(*witness[name][k]) for k in ("lo", "hi"))
    lo, hi = ends("salem.lambda10_interval")
    p10 = list(LEHMER)
    assert lat.ip_eval(p10, lo) * lat.ip_eval(p10, hi) < 0
    lo, hi = ends("salem.matches_largest_p10_root")
    assert (2 * lo - 3) ** 2 <= 5 <= (2 * hi - 3) ** 2
    assert lo > Fraction(3, 2)


def test_markdown_times_the_surface_suite(capsys):
    assert main(["all", "--format", "md"]) == 0
    lines = capsys.readouterr().out.splitlines()

    def ms(line):
        return float(line.split("(")[1].split(" ms")[0])

    start = next(i for i, ln in enumerate(lines)
                 if ln.startswith("- [PASS] `surface` ("))
    children = []
    for ln in lines[start + 1:]:
        if not ln.startswith("  "):
            break
        if not ln.startswith("    "):
            children.append(ln)
    surface = ms(lines[start])
    assert surface > 0
    assert ms(next(c for c in children if "`singular`" in c)) > 0
    assert abs(sum(map(ms, children)) - surface) <= 0.05 * surface


def test_markdown_times_the_singular_chart_leaves(capsys):
    """Each singular chart leaf carries the time of its own stratum, so
    chart z, the eliminant's stratum, shows a time, and the three add
    up to no more than the singular node's time (0.2 ms for rounding)."""
    assert main(["surface", "--format", "md"]) == 0
    times = {}
    for ln in capsys.readouterr().out.splitlines():
        name, sep, rest = ln.partition("` (")
        if sep:
            times[name.rpartition("`")[2]] = float(rest.split(" ms")[0])
    charts = [times[f"singular.chart_{c}"] for c in "zyx"]
    assert charts[0] > 0
    assert sum(charts) <= times["singular"] + 0.2


SRC_DIR = Path(cli.__file__).resolve().parents[1]


def test_installed_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "salemsurf.cli", "cubic", "--format", "md"],
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "overall: **PASS**" in proc.stdout


def test_readme_library_example_prints_what_it_says():
    """The python block of the README's "Library use" section runs in a
    fresh interpreter and prints the two lines its comments show."""
    readme = (SRC_DIR.parent / "README.md").read_text()
    block = re.search(r"## Library use\n\n```python\n(.*?)```", readme,
                      re.S).group(1)
    assert "# 1.176280818..." in block and "# g^7 g^12" in block
    proc = subprocess.run(
        [sys.executable, "-c", block],
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    first, second = proc.stdout.splitlines()
    assert first.startswith("1.176280818")
    assert second == "g^7 g^12"
BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
FRONT_END = {"cli", "suites", "report", "errors"}


def _fresh_names(code, names, *flags):
    """The words that a fresh interpreter, started with `flags`, prints
    for the expression `names`, an iterable of strings, after running
    `code`."""
    probe = (f"{code}\nimport sys, types\n"
             f"print(' '.join({names}), file=sys.stderr)")
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    err = subprocess.run([sys.executable, *flags, "-c", probe], env=env,
                         check=True, capture_output=True, text=True).stderr
    return set(err.splitlines()[-1].split())


def _executed_modules(code):
    """Short names of the salemsurf modules a fresh interpreter has
    executed after running `code`: those in sys.modules that are plain
    modules, not placeholders waiting for a first attribute access."""
    return {n.removeprefix("salemsurf.") for n in _fresh_names(
        code, "n for n, m in sys.modules.items() if n.startswith("
              "'salemsurf.') and type(m) is types.ModuleType")}


def test_importing_the_cli_executes_only_the_front_end():
    assert _executed_modules("import salemsurf.cli") == FRONT_END


@pytest.mark.parametrize("suite,absent", [
    ("salem", {"gf2m", "unipoly", "multipoly", "mod2space", "cubic",
               "surface", "cubic_checks"}),
    ("lagrangians", {"surface", "multipoly", "cubic", "cubic_checks"}),
    ("surface", {"mod2space", "lattice", "lattice_checks",
                 "cubic_checks"}),
    ("cubic", {"lattice", "mod2space", "surface", "lattice_checks"}),
    ("lattice", {"surface", "multipoly", "cubic", "cubic_checks"}),
])
def test_suite_executes_only_the_modules_it_runs(suite, absent):
    """A suite executes its own check module and no other suite's
    (the front end alone executes none: see the test above); the
    surface suite's checks live in `surface`."""
    ran = _executed_modules("from salemsurf.cli import main\n"
                            f"main([{suite!r}, '--format', 'json'])")
    assert FRONT_END <= ran
    assert not ran & absent
    on_lattice = suite in ("lattice", "salem", "lagrangians")
    assert ("lattice" in ran) == ("lattice_checks" in ran) == on_lattice
    checks = {"cubic": "cubic_checks", "surface": "surface"}
    assert checks.get(suite, "lattice_checks") in ran


def test_surface_run_imports_no_rational_arithmetic():
    """fractions and decimal come with lattice or a --precision."""
    rational = "{'fractions', 'decimal'}"
    assert _fresh_names("from salemsurf.cli import main\n"
                        "main(['surface', '--format', 'json'])",
                        f"{rational} & set(sys.modules)") == set()
    assert _fresh_names("from salemsurf.cli import main\n"
                        "main(['salem', '--format', 'json'])",
                        f"{rational} & set(sys.modules)") == {"fractions",
                                                              "decimal"}


@pytest.mark.parametrize("suite", ["surface", "lattice", "cubic", "all"])
def test_data_reads_import_no_path_library(suite):
    """The bundled data is read with os.path, like a --data directory, so
    a run in a clean interpreter (-S: no site hook imports them first)
    passes without importing importlib.resources or pathlib."""
    assert _fresh_names("from salemsurf.cli import main\n"
                        f"assert main([{suite!r}, '--format', 'json']) == 0",
                        "{'importlib.resources', 'pathlib'} & "
                        "set(sys.modules)", "-S") == set()


@pytest.mark.parametrize("suite,functions", [
    ("salem", ("lattice.real_roots", "lattice.salem_certify",
               "lattice.char_poly")),
    ("surface", ("surface.singular_locus", "unipoly.uni_roots",
                 "suites.surface_suite")),
    ("cubic", ("suites.cubic_suite", "gf2m.field_make")),
])
def test_bench_tracer_wraps_modules_executed_on_first_use(tmp_path, suite,
                                                         functions):
    """bench/traced.py wraps the layer functions of the modules found
    in sys.modules once cli is imported; those executed only when a
    suite first uses them must be traced all the same."""
    traced = runpy.run_path(str(BENCH_DIR / "traced.py"))
    spans = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "traced.py"), str(spans), suite,
         "--format", "json"], env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    metrics = traced["summarize"]([json.loads(spans.read_text())])
    for qual in functions:
        assert metrics[f"{qual}.calls"] > 0, qual


def test_bench_tracer_names_live_functions(model, census):
    """bench/traced.py, loaded read-only: every function it wraps
    exists in its module, and every size it takes from a result reads
    a real result of that function, so a renamed layer or a changed
    result type shows here and not first in `bench/run.py --trace 1`."""
    traced = runpy.run_path(str(BENCH_DIR / "traced.py"))
    missing = []
    for qual in traced["FUNCTIONS"]:
        mod, name = qual.split(".")
        if not callable(getattr(importlib.import_module(f"salemsurf.{mod}"),
                                name, None)):
            missing.append(qual)
    assert missing == []
    su, sv = (local_expansion(model.s.partial(i), (0, 0, 1))
              for i in (0, 1))
    res = resultant(su, sv)
    assert isinstance(res, MultiPoly)
    roots = uni_roots(res.univariate_at(0, (0, 0)), 10)
    text = rp.emit_json(run_suite("salem"))
    results = {"multipoly.resultant": res, "unipoly.uni_roots": roots,
               "mod2space.enumerate_lagrangians": census,
               "report.emit_json": text}
    assert set(results) == set(traced["SIZES"])
    sizes = {qual: size(results[qual])
             for qual, (_suffix, _agg, size) in traced["SIZES"].items()}
    assert sizes == {"multipoly.resultant": res.total_degree(),
                     "unipoly.uni_roots": len(roots),
                     "mod2space.enumerate_lagrangians": 4590,
                     "report.emit_json": len(text)}


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        MUTANT_VERDICTS.write_text(
            json.dumps(_mutant_verdicts(Path(tmp)), indent=1) + "\n")
