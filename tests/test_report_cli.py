import json
import random
import re
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import salemsurf.cli as cli
import salemsurf.cubic as cu
import salemsurf.lattice as lat
import salemsurf.mod2space as m2
import salemsurf.report as rp
import salemsurf.suites as suites
import salemsurf.surface as sf
from salemsurf.cli import build_parser, main
from salemsurf.errors import NoSolution
from salemsurf.suites import SUITE_NAMES, SuiteConfig, run_suite

GOLDEN = Path(__file__).parent / "golden" / "all.json"
SALEM_FINE_GOLDEN = Path(__file__).parent / "golden" / "salem_1.5e-30.json"


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
                         obj.get("witness"), kids, obj.get("elapsed_ms", 0))

    obj = json.loads(text)
    assert obj.get("schema") == 1
    return build(obj)


def test_json_shape_and_roundtrip():
    r = rp.node("top", [rp.leaf("child", True, witness="g^5")],
                elapsed_ms=3.25)
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
    w = rp.interval_witness((Fraction(9, 8), Fraction(19, 16)))
    assert w["lo"] == [9, 8]
    assert w["hi"] == [19, 16]
    assert w["midpoint_decimal"].startswith("1.156")
    assert float(w["width_decimal"]) == pytest.approx(1 / 16, abs=1e-3)


def test_markdown_shape():
    r = rp.node("demo", [rp.leaf("check", True, witness="w")])
    text = rp.emit_markdown(r)
    assert text.splitlines()[0] == "# verification report: demo"
    assert "overall: **PASS**" in text
    assert "- [PASS] `check`" in text


def test_run_suite_lattice():
    rep = run_suite("lattice", SuiteConfig())
    assert rep.ok()
    names = {c.name for c in rep.children}
    assert names == {"lattice.coxeter", "lattice.salem", "lattice.mod2",
                     "lattice.lagrangians"}
    cox = next(c for c in rep.children if c.name == "lattice.coxeter")
    assert "coxeter.charpoly_e10" in {c.name for c in cox.children}


def test_run_suite_rejects_unknown():
    with pytest.raises(ValueError, match="no suite named 'bogus'"):
        run_suite("bogus", SuiteConfig())


def test_suite_names_all_run_clean():
    for name in SUITE_NAMES:
        if name in ("all", "surface"):
            continue  # covered elsewhere; keep this test quick
        assert run_suite(name, SuiteConfig()).ok(), name


def test_cli_exit_codes(capsys):
    assert main(["salem", "--format", "md"]) == 0
    out = capsys.readouterr().out
    assert "1.17628" in out
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_cli_rejects_ext_bound_below_one(bound):
    with pytest.raises(SystemExit) as exc:
        main(["surface", "--ext-bound", bound])
    assert exc.value.code == 2


def test_cli_rejects_ext_bound_above_field_limit(monkeypatch):
    def no_run(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "run_suite", no_run)
    with pytest.raises(SystemExit) as exc:
        main(["surface", "--ext-bound", "21"])
    assert exc.value.code == 2


def test_shared_objects_are_built_once(monkeypatch, tmp_path, model):
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    read = sf._read_data

    def counted_read(data_dir, name):
        calls[name] += 1
        return read(data_dir, name)

    monkeypatch.setattr(sf, "_read_data", counted_read)
    count(lat, "restrict_to_basis")
    count(lat, "char_poly")
    count(m2, "Mod2QuadSpace")
    count(m2, "mod2_reduce_and_factor")
    count(cu, "all_point_set_matches")
    count(cu, "cusp_parametrization")
    count(sf, "resultant")  # surface imports it by name
    # char_poly: the Coxeter matrix in lattice.coxeter and again inside
    # dynamical_degree, and the restriction once
    per_run = {"e10_basis.dat": 1, "restrict_to_basis": 1, "char_poly": 3,
               "Mod2QuadSpace": 1, "mod2_reduce_and_factor": 1}
    for runs in (1, 2):  # nothing is kept from one run to the next
        assert run_suite("lattice").ok()
        assert calls == {k: runs * v for k, v in per_run.items()}
    calls.clear()
    assert run_suite("lagrangians").ok()
    assert calls == {"e10_basis.dat": 1, "restrict_to_basis": 1,
                     "Mod2QuadSpace": 1}
    # a failed build is kept: three checks need the restriction of a
    # basis with a singular Gram matrix, and it is attempted once
    calls.clear()
    row, mutant = BASIS_MUTANTS[1]
    report = run_suite("lattice", SuiteConfig(data_dir=_with_basis_row(
        tmp_path, row, mutant)))
    assert calls["restrict_to_basis"] == 1
    witnesses = {c.name: c.witness for c in report.children
                 if c.status == "error"}
    assert set(witnesses) == {"lattice.coxeter", "lattice.mod2",
                              "lattice.lagrangians"}
    assert len(set(witnesses.values())) == 1
    chart = cu.cusp_parametrization(model.g, model.cusp)
    action = cu.induced_affine_map(chart, list(model.f))
    assert suites._surface_match(model, chart, action).ok()
    assert calls["all_point_set_matches"] == 1
    assert sf.singular_locus(model).ok()
    assert calls["resultant"] == 1
    # the cubic check locates the cusp and the match reuses it
    for name in ("load_model", "derive_sigma_inverse", "conjugation_scalar"):
        count(sf, name)
    count(cu, "find_cusp")
    count(cu, "induced_affine_map")
    calls.clear()
    assert run_suite("surface").ok()
    for name in ("load_model", "derive_sigma_inverse", "conjugation_scalar",
                 "find_cusp", "cusp_parametrization", "induced_affine_map"):
        assert calls[name] == 1, name


ALPHA_UNAVAILABLE = ("NoSolution: conjugation scalar or induced multiplier "
                     "unavailable; see earlier leaves")


@pytest.mark.parametrize("module,name,leaves", [
    (sf, "conjugation_scalar", ("derivation.conjugation_scalar",)),
    (cu, "find_cusp", ("cubic", "match")),
    (sf, "derive_sigma_inverse", ("inverse",)),
], ids=["conjugation_scalar", "find_cusp", "derive_sigma_inverse"])
def test_failed_surface_build_is_not_redone(monkeypatch, module, name,
                                            leaves):
    """A surface object whose build raises is attempted once per run;
    every check that needs it reports the exception in its own leaf, and
    the alpha check its fixed witness."""
    calls = Counter()

    def fail(*args):
        calls[name] += 1
        raise NoSolution(f"forced {name} failure")

    monkeypatch.setattr(module, name, fail)
    report = run_suite("surface")
    assert calls[name] == 1
    witness = f"NoSolution: forced {name} failure"
    assert {leaf.name: leaf.witness for leaf in _error_leaves(report)} == {
        **{leaf: witness for leaf in leaves}, "alpha": ALPHA_UNAVAILABLE}
    # without the inverse there is no derivation node
    names = [c.name for c in report.children]
    assert ("derivation" in names) == (name != "derive_sigma_inverse")
    assert names[0] == "model" and names[-1] == "alpha"


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
    rows = lat.e10_basis(sf._read_data(None, "e10_basis.dat"))
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
    lines = sf._read_data(None, "e10_basis.dat").splitlines()
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


def _model_mutants(per_file, seed):
    """(file, line, mutated line): one coefficient g^k below the header
    of one model file changed to g^k' with k' != k."""
    rng = random.Random(seed)
    out = []
    for name in MODEL_FILES:
        sites = [(ln, m) for ln in sf._read_data(None, name).splitlines()
                 if not ln.startswith(("#", "vars:", "field:"))
                 for m in re.finditer(r"g\^(\d+)", ln)]
        mutants = set()
        while len(mutants) < per_file:  # cubic.poly has only 5 sites
            ln, m = rng.choice(sites)
            k = rng.choice([j for j in range(31) if j != int(m.group(1))])
            mutants.add((name, ln, f"{ln[:m.start()]}g^{k}{ln[m.end():]}"))
        out += sorted(mutants)
    return out


def _error_leaves(report):
    if report.children:
        for c in report.children:
            yield from _error_leaves(c)
    elif report.status == "error":
        yield report


def test_model_mutations_are_rejected(tmp_path):
    """Every single-coefficient mutant of every model file fails the
    surface suite, and only the package's own exceptions reach a leaf."""
    for n, (name, line, mutant) in enumerate(_model_mutants(6, 412)):
        copy = _with_line(tmp_path / str(n), name, line, mutant)
        report = run_suite("surface", SuiteConfig(data_dir=copy))
        assert not report.ok(), (name, mutant)
        for leaf in _error_leaves(report):
            assert leaf.witness.startswith(PACKAGE_ERRORS), leaf.witness


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
])
def test_malformed_number_is_a_parse_error(tmp_path, name, old, new,
                                           message):
    copy = _with_line(tmp_path, name, old, new)
    report = run_suite("surface", SuiteConfig(data_dir=copy))
    (model,) = report.children
    assert model.name == "model" and model.status == "error"
    assert model.witness == f"ParseError: {message}"


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


def test_full_run_is_deterministic_and_matches_golden(capsys):
    assert main(["all", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["all", "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first == GOLDEN.read_text()


def test_fine_salem_run_matches_golden(capsys):
    assert main(["salem", "--format", "json", "--precision", "1.5e-30"]) == 0
    assert capsys.readouterr().out == SALEM_FINE_GOLDEN.read_text()


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


def test_installed_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "salemsurf.cli", "cubic", "--format", "md"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "overall: **PASS**" in proc.stdout
