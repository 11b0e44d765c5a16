"""The independent checker accepts real reports and rejects corrupted ones.

    python3 -m pytest bench
"""

from __future__ import annotations

import copy
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checker
import mutants

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "salemsurf" / "data"
PRECISION = checker.parse_precision("1e-9")


def verify(*args) -> dict:
    out = subprocess.run(
        [sys.executable, "-m", "salemsurf.cli", *args, "--format", "json"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, check=False)
    report, problems = checker.parse_report(out.stdout)
    assert not problems, out.stderr
    return report


@pytest.fixture(scope="module")
def model_singular():
    s = checker.parse_poly_text((DATA / "surface.poly").read_text())["s"]
    return checker.singular_points(s)


@pytest.fixture(scope="module")
def all_report():
    return verify("all")


@pytest.fixture(scope="module")
def mutant(tmp_path_factory):
    (m,) = mutants.make_mutants(DATA, tmp_path_factory.mktemp("mut"), 5, 1)
    return m, verify("surface", "--data", str(m.directory))


def node(report: dict, name: str) -> dict:
    for path, leaf in checker.leaves(report):
        if path.endswith("/" + name):
            return leaf
    raise KeyError(name)


def test_field_and_parser():
    assert checker.gf_pow(checker.gf_parse("g"), 31) == 1
    assert checker.gf_parse("g^5") == checker.gf_parse("g^2") ^ 1
    text = (DATA / "surface.poly").read_text()
    s = checker.parse_poly_text(text)["s"]
    assert len(s) == 42
    assert f"s = {checker.format_poly(s)}" == text.splitlines()[-1]
    assert len(checker.plane_points()) == 1057


def test_model_singular_set_is_the_marked_points(model_singular):
    marked = checker.parse_point_text((DATA / "points.dat").read_text())
    del marked["cusp"]
    assert model_singular == sorted(marked.values())
    assert len(model_singular) == 11


def test_census_closed_form():
    assert checker.CENSUS == 4590


def test_real_report_passes(all_report, model_singular):
    assert checker.check_all(all_report, PRECISION, model_singular) == []


def test_dropped_singular_point_is_rejected(all_report, model_singular):
    bad = copy.deepcopy(all_report)
    node(bad, "singular.matches_marked_points")["witness"].pop(3)
    problems = checker.check_all(bad, PRECISION, model_singular)
    assert any("brute-force" in p for p in problems)


def test_shifted_lambda_is_rejected(all_report, model_singular):
    bad = copy.deepcopy(all_report)
    w = node(bad, "salem.lambda10_interval")["witness"]
    lo, hi = Fraction(*w["lo"]), Fraction(*w["hi"])
    shift = 2 * (hi - lo)
    w["lo"] = [(lo + shift).numerator, (lo + shift).denominator]
    w["hi"] = [(hi + shift).numerator, (hi + shift).denominator]
    problems = checker.check_all(bad, PRECISION, model_singular)
    assert any("change sign" in p for p in problems)


def test_coarse_lambda_is_rejected():
    lo, hi = Fraction(117, 100), Fraction(118, 100)
    witness = {"lo": [lo.numerator, lo.denominator],
               "hi": [hi.numerator, hi.denominator]}
    assert checker.check_lambda(witness, Fraction(1, 10)) == []
    assert checker.check_lambda(witness, PRECISION)


def test_census_of_4589_is_rejected(all_report, model_singular):
    bad = copy.deepcopy(all_report)
    node(bad, "lagrangians.count")["witness"] = "4589 members"
    problems = checker.check_all(bad, PRECISION, model_singular)
    assert any("census count" in p for p in problems)


def test_failing_or_renamed_leaf_is_rejected(all_report, model_singular):
    bad = copy.deepcopy(all_report)
    node(bad, "coxeter.isometry")["status"] = "fail"
    assert checker.check_all(bad, PRECISION, model_singular)
    bad = copy.deepcopy(all_report)
    node(bad, "coxeter.isometry")["name"] = "coxeter.isometry_renamed"
    problems = checker.check_all(bad, PRECISION, model_singular)
    assert any("leaf names differ" in p for p in problems)


def test_mutant_is_rejected_with_the_true_singular_set(mutant,
                                                       model_singular):
    m, report = mutant
    assert m.singular != model_singular
    assert report["status"] != "pass"
    assert checker.check_mutant(report, m.singular) == []


def test_mutant_reported_as_pass_is_rejected(mutant):
    m, report = mutant
    bad = copy.deepcopy(report)
    bad["status"] = "pass"
    problems = checker.check_mutant(bad, m.singular)
    assert "mutant reported as pass" in problems


def test_mutants_follow_the_seed(tmp_path):
    a = mutants.make_mutants(DATA, tmp_path / "a", 11, 3)
    b = mutants.make_mutants(DATA, tmp_path / "b", 11, 3)
    c = mutants.make_mutants(DATA, tmp_path / "c", 12, 3)
    assert [m.change for m in a] == [m.change for m in b]
    assert [m.change for m in a] != [m.change for m in c]
    assert len({m.change for m in a}) == 3
    text = (a[0].directory / "surface.poly").read_text()
    assert text != (DATA / "surface.poly").read_text()
