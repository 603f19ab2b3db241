"""Seeded fuzz of the command line: any problem file ends in an exit code.

Each example writes one problem file, either arbitrary bytes or a JSON
document over a small builder algebra with a random span for h (sometimes
leaving g), a random coordinate θ and a random parabolic hint, and runs
``analyze`` on it.  Whatever the file, the run returns 0 (pass), 1 (a check
failed) or 2 (input error) and raises nothing.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphlie.builders import add, gl_basis, scale, sl_basis, so_basis
from sphlie.cli import main
from sphlie.problem import matrix_to_json

BASES = [sl_basis(2), gl_basis(2), so_basis(3), sl_basis(3)]
SMALL = st.integers(-2, 2)
RARELY = st.integers(0, 3).map(lambda k: k == 0)


def integer_matrices(rows, cols):
    return st.lists(st.lists(SMALL, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def problem_documents(draw):
    basis = draw(st.sampled_from(BASES))
    n, d = len(basis[0]), len(basis)
    # h is spanned by basis vectors of g (often a subalgebra) and random
    # combinations of them (rarely one)
    vectors = st.sampled_from(basis) | st.lists(
        SMALL, min_size=d, max_size=d).map(
            lambda cs: add(*(scale(c, m) for c, m in zip(cs, basis))))
    h = draw(st.lists(vectors, max_size=3))
    doc = {"schema_version": 1, "name": "fuzz", "matrix_size": n,
           "basis": [matrix_to_json(m) for m in basis],
           "subalgebra_basis": [matrix_to_json(m) for m in h]}
    # one draw in four each: a matrix outside g, a θ (rarely Cartan), a hint
    if draw(RARELY):
        doc["subalgebra_basis"].append(draw(integer_matrices(n, n)))
    if draw(RARELY):
        doc["theta"] = draw(integer_matrices(d, d))
    if draw(RARELY):
        doc["minimal_parabolic_hint"] = draw(
            st.lists(st.sampled_from([1, -1]), max_size=2))
    return json.dumps(doc).encode()


@pytest.fixture(scope="module")
def problem_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "problem.json"


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.binary(max_size=48) | problem_documents(), st.integers(0, 3))
def test_analyze_ends_in_an_exit_code_on_any_file(problem_path, content,
                                                 search):
    problem_path.write_bytes(content)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["analyze", str(problem_path), "--conjugate-search",
                     str(search)])
    assert code in (0, 1, 2)
