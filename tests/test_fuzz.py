"""Property test of the data boundary: text drawn from the model format's
own alphabet, spliced into one model file, never makes the CLI raise,
and every error leaf of the report names one of the package's own
exceptions.

Some splices put a whole monomial of the right degree at the start of a
term, so that the copy still parses and loads and the later checks
(equivariance, the inverse's exact division, the singular locus) meet
the changed polynomial."""

import contextlib
import io
import re
import shutil
from pathlib import Path

import pytest

import salemsurf.surface as sf
from salemsurf import cli
from test_report_cli import (MODEL_FILES, PACKAGE_ERRORS, _error_leaves,
                             _parse_json)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ALPHABET = "g^0123456789xyz*+=:;() \n"


def _degree_at(text, i):
    """Total degree of the term that starts at text[i]."""
    term = re.match(r"[^+\n]*", text[i:]).group()
    return sum(int(k or 1) for k in re.findall(r"[xyz](?:\^(\d+))?", term))


# (file, what to splice, whether it goes where a term starts); a term
# splice is (k, a, b): the monomial g^k x^a y^b z^c of the degree of the
# term it precedes, a and b as shares of that degree
SPLICES = st.one_of(
    st.tuples(st.sampled_from(MODEL_FILES), st.text(ALPHABET, max_size=12),
              st.just(False)),
    st.tuples(st.sampled_from(MODEL_FILES[:3]),
              st.tuples(st.integers(0, 30), st.floats(0, 1),
                        st.floats(0, 1)),
              st.just(True)))


@hypothesis.settings(max_examples=30, derandomize=True, deadline=None,
                     database=None)
@hypothesis.given(splice=SPLICES, where=st.floats(0, 1),
                  cut=st.integers(0, 8))
def test_spliced_model_text_stays_inside_the_report(tmp_path_factory,
                                                    splice, where, cut):
    name, text, at_term = splice
    copy = tmp_path_factory.mktemp("spliced") / "data"
    shutil.copytree(Path(sf.__file__).parent / "data", copy)
    old = (copy / name).read_text()
    if at_term:
        starts = [m.start() for m in re.finditer(r"(?<=[=+] )[gxyz]", old)]
        i, cut = starts[int(where * (len(starts) - 1))], 0
        k, sa, sb = text
        deg = _degree_at(old, i)
        a = int(sa * deg)
        b = int(sb * (deg - a))
        text = f"g^{k}*x^{a}*y^{b}*z^{deg - a - b} + "
    else:
        i = int(where * len(old))
    (copy / name).write_text(old[:i] + text + old[i + cut:])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["surface", "--data", str(copy), "--format", "json"])
    assert rc in (0, 1)
    for leaf in _error_leaves(_parse_json(out.getvalue())):
        assert leaf.witness.startswith(PACKAGE_ERRORS), leaf.witness
