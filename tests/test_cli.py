"""Command-line interface: exit codes, text/JSON output, byte stability."""

import argparse
import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mixed_levi
from sphlie.builders import add
from sphlie.cli import build_parser, main
from sphlie.catalog import get_entry
from sphlie.problem import build_pair, problem_to_json
from sphlie.spherical import structure_report


def no_floats(text: str) -> dict:
    """Parse JSON while proving no float literal appears anywhere."""
    def boom(tok):
        raise AssertionError(f"float literal {tok!r} in CLI output")
    return json.loads(text, parse_float=boom)


@pytest.fixture
def sl2_so2(tmp_path):
    path = tmp_path / "sl2_so2.json"
    path.write_text(problem_to_json(get_entry("sl2_so2").problem),
                    encoding="utf-8")
    return str(path)


@pytest.fixture
def sl2_n(tmp_path):
    path = tmp_path / "sl2_n.json"
    path.write_text(problem_to_json(get_entry("sl2_n").problem),
                    encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- analyze ------------------------------------------------------------------


def test_analyze_passing_pair_text(capsys, sl2_so2):
    code, out, err = run(capsys, ["analyze", sl2_so2])
    assert code == 0 and err == ""
    assert "spherical at base point: yes (defect 0)" in out
    assert "rank: 1" in out
    assert "orbit identity: ok (100 samples)" in out
    assert out.rstrip().endswith("result: PASS")


def test_analyze_failing_pair_without_search(capsys, sl2_n):
    code, out, _ = run(capsys, ["analyze", sl2_n])
    assert code == 1
    assert "spherical at base point: no (defect 1)" in out
    assert out.rstrip().endswith("result: FAIL")


def test_analyze_conjugate_search_recovers_the_pair(capsys, sl2_n):
    code, out, _ = run(capsys, ["analyze", sl2_n, "--conjugate-search", "5"])
    assert code == 0
    assert "conjugation: found after 2 attempts: weyl[(2)#0]" in out
    assert out.rstrip().endswith("result: PASS")


def test_analyze_json_document_shape(capsys, sl2_n):
    code, out, _ = run(capsys, ["analyze", sl2_n, "--conjugate-search", "5",
                                "--format", "json"])
    assert code == 0
    doc = no_floats(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "analyze"
    assert doc["pass"] is True
    assert doc["spherical_at_base"] is False
    assert doc["conjugation"]["attempts"] == 2
    assert doc["conjugation"]["description"] == "weyl[(2)#0]"
    assert doc["adapted"]["subset_indices"] == []
    assert set(doc["checks"]) == {
        "q_plus_h_is_g", "q_meets_h_inside_levi",
        "noncompact_levi_ideals_in_h", "levi_split_by_p_and_h",
        "nilradical_complement"}
    assert all(doc["checks"].values())
    assert doc["rank"]["value"] == 1
    assert all(doc["normalizer"][k] for k in
               ("split_ok", "elementary_ok", "self_normalizing_ok",
                "same_adapted_ok"))
    assert doc["orbit"]["ok"] is True


def test_json_output_is_byte_identical_across_runs(capsys, sl2_n):
    argv = ["analyze", sl2_n, "--conjugate-search", "5", "--seed", "3",
            "--format", "json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    assert first.endswith("\n")


def test_analyze_failure_in_json_reports_null_blocks(capsys, sl2_n):
    code, out, _ = run(capsys, ["analyze", sl2_n, "--format", "json"])
    assert code == 1
    doc = no_floats(out)
    assert doc["pass"] is False
    assert doc["spherical"] is False
    assert doc["adapted"] is None and doc["rank"] is None
    assert doc["normalizer"] is None and doc["orbit"] is None


# -- focused subcommands ------------------------------------------------------


def test_adapted_lists_exactly_one_candidate(capsys, sl2_so2):
    code, out, _ = run(capsys, ["adapted", sl2_so2, "--list-candidates"])
    assert code == 0
    assert "(1 passing candidate)" in out
    assert "passing candidate subsets:" in out
    assert out.count("indices []") >= 1


def test_list_candidates_names_a_nonempty_adapted_subset(capsys, tmp_path):
    path = tmp_path / "sl2_full.json"
    path.write_text(problem_to_json(get_entry("sl2_full").problem),
                    encoding="utf-8")
    code, out, _ = run(capsys, ["adapted", str(path), "--list-candidates",
                                "--format", "json"])
    assert code == 0
    doc = no_floats(out)
    assert doc["adapted"]["candidates_passing"] == 1
    assert doc["candidates"] == [{"indices": [0],
                                  "roots": doc["adapted"]["simple_roots"]}]
    code, out, _ = run(capsys, ["adapted", str(path), "--list-candidates"])
    assert code == 0 and "  indices [0]" in out


def test_rank_subcommand_json(capsys, sl2_so2):
    code, out, _ = run(capsys, ["rank", sl2_so2, "--format", "json"])
    assert code == 0
    doc = no_floats(out)
    assert doc["command"] == "rank"
    assert doc["rank"]["value"] == 1
    assert doc["rank"]["rank_torus"] == [[1, 0, 0]]
    assert "normalizer" not in doc and "orbit" not in doc


def test_normalizer_subcommand(capsys, sl2_so2):
    code, out, _ = run(capsys, ["normalizer", sl2_so2, "--format", "json"])
    assert code == 0
    doc = no_floats(out)
    assert doc["normalizer"]["dim"] == 1
    assert doc["normalizer"]["complement_dim"] == 0
    assert all(doc["normalizer"][k] for k in
               ("split_ok", "elementary_ok", "self_normalizing_ok",
                "same_adapted_ok"))


def test_orbit_check_sample_count_is_respected(capsys, sl2_so2):
    code, out, _ = run(capsys, ["orbit-check", sl2_so2, "--samples", "7",
                                "--format", "json"])
    assert code == 0
    doc = no_floats(out)
    assert doc["orbit"]["ok"] is True
    assert doc["orbit"]["samples_run"] == 7
    assert doc["orbit"]["characteristic_element"] == ["-1/2", 0, 0]


# -- catalog subcommands ------------------------------------------------------


def test_catalog_list_names_all_entries(capsys):
    code, out, _ = run(capsys, ["catalog", "list"])
    assert code == 0
    for name in ("sl2_so2", "sl3_so3", "sl2_zero", "gl2_projective_line"):
        assert name in out


def test_catalog_run_single_and_all(capsys):
    code, out, _ = run(capsys, ["catalog", "run", "sl2_so2"])
    assert code == 0
    assert "sl2_so2" in out and "PASS" in out
    code, out, _ = run(capsys, ["catalog", "run", "sl2_full", "--samples",
                                "5", "--format", "json"])
    assert code == 0
    doc = no_floats(out)
    assert doc["results"][0]["name"] == "sl2_full"
    assert doc["results"][0]["passed"] is True


def test_catalog_run_unknown_name_is_an_input_error(capsys):
    code, out, err = run(capsys, ["catalog", "run", "nope"])
    assert code == 2
    assert "nope" in err


def test_catalog_export_round_trips_through_analyze(capsys, tmp_path):
    code, out, _ = run(capsys, ["catalog", "export", "sl3_so3"])
    assert code == 0
    path = tmp_path / "sl3.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, ["analyze", str(path), "--format", "json"])
    assert code == 0
    assert no_floats(out)["rank"]["value"] == 2


@pytest.mark.parametrize("hint", [None, (1, -1)], ids=["unhinted", "hinted"])
@pytest.mark.parametrize("mixed", [False, True], ids=["block", "mixed"])
def test_levi_split_does_not_depend_on_the_basis(capsys, tmp_path, mixed,
                                                 hint):
    problem = mixed_levi.problem(mixed=mixed, hint=hint)
    path = tmp_path / "sl2x2_so3.json"
    path.write_text(problem_to_json(problem), encoding="utf-8")
    code, out, err = run(capsys, ["analyze", "--format", "json", str(path)])
    assert code == 0 and err == ""
    assert no_floats(out)["pass"] is True
    fs = structure_report(build_pair(problem)).levi_structure
    assert (fs.compact_ideals.dim, fs.noncompact_ideals.dim) == (3, 6)


def test_hinted_analyze_does_not_depend_on_the_basis(capsys, tmp_path):
    """sl2x2_diag_opposite with its first basis matrix H1 replaced by
    H1 + E1 + F1: the same algebra, h and hint.  A torus grown greedily in
    the order of g's basis picks H1 + E1 + F1, whose ad has the irrational
    eigenvalues ±2√2."""
    block = get_entry("sl2x2_diag_opposite").problem
    h1, e1, f1 = block.basis[:3]
    mixed = dataclasses.replace(
        block, basis=(add(h1, e1, f1), *block.basis[1:]))
    answers = []
    for problem in (block, mixed):
        path = tmp_path / "problem.json"
        path.write_text(problem_to_json(problem), encoding="utf-8")
        code, out, err = run(capsys, ["analyze", "--format", "json",
                                      str(path)])
        assert code == 0 and err == ""
        doc = no_floats(out)
        assert doc["pass"] is True
        answers.append((doc["spherical"], doc["adapted"]["subset_indices"],
                        doc["rank"]["value"], doc["normalizer"]["dim"],
                        doc["normalizer"]["complement_dim"], doc["checks"]))
    assert answers[1] == answers[0]
    assert answers[0][2:5] == (1, 3, 0)


# -- error handling -----------------------------------------------------------


def test_unreadable_and_malformed_inputs_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, ["analyze", str(tmp_path / "missing.json")])
    assert code == 2 and "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1, "matrix_size": 2, '
                   '"basis": [[[0.25, 0], [0, 0]]], "subalgebra_basis": []}',
                   encoding="utf-8")
    code, _, err = run(capsys, ["analyze", str(bad)])
    assert code == 2 and "floating point literal '0.25'" in err
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"basis": [[["1/0"]]]}', encoding="utf-8")
    code, _, err = run(capsys, ["analyze", str(malformed)])
    assert code == 2


@pytest.mark.parametrize("content", [
    b'{"basis": ' + b"1" * 5000 + b"}",      # past Python's int digit limit
    b"[" * 100_000 + b"]" * 100_000,         # past the recursion limit
    bytes([0xFF, 0xFE, 0x7B, 0x7D]),         # not UTF-8
], ids=["long_integer", "deep_nesting", "not_utf8"])
def test_a_file_json_cannot_read_is_an_input_error(capsys, tmp_path, content):
    path = tmp_path / "problem.json"
    path.write_bytes(content)
    code, out, err = run(capsys, ["analyze", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("input error: ") and "Traceback" not in err


def test_theta_rows_that_are_not_lists_exit_2(capsys, tmp_path):
    doc = json.loads(problem_to_json(get_entry("sl2_so2").problem))
    for bad_row in (1, "100"):
        doc["theta"] = [[1, 0, 0], bad_row, [0, 0, 1]]
        path = tmp_path / "theta.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, ["analyze", str(path)])
        assert code == 2
        assert "theta: expected a 3x3 coordinate matrix" in err


def test_a_seed_with_hint_exits_2(capsys, tmp_path):
    # a rotation lies in k, not in the split part; with the hint present the
    # seed used to be ignored silently
    doc = json.loads(problem_to_json(get_entry("sl3_so3").problem))
    assert "minimal_parabolic_hint" in doc
    doc["a_seed"] = [[[0, 1, 0], [-1, 0, 0], [0, 0, 0]]]
    path = tmp_path / "seeded.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, ["analyze", str(path)])
    assert code == 2
    assert "a_seed and minimal_parabolic_hint are mutually exclusive" in err


def test_non_reductive_input_exits_2(capsys, tmp_path):
    # span(E11, E12) in gl(2): solvable, non-reductive, closed under bracket.
    doc = {"schema_version": 1, "name": "borel", "matrix_size": 2,
           "basis": [[[1, 0], [0, 0]], [[0, 1], [0, 0]]],
           "subalgebra_basis": []}
    path = tmp_path / "nonred.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, ["analyze", str(path)])
    assert code == 2 and err != ""


def test_non_cartan_theta_exits_2(capsys, tmp_path):
    # theta = Ad(diag(1, -1)) on (H, E, F) is an involutive automorphism of
    # sl(2), but it fixes H, on which the Killing form is positive
    doc = {"schema_version": 1, "name": "sl2_theta_fixes_H", "matrix_size": 2,
           "basis": [[[1, 0], [0, -1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]],
           "subalgebra_basis": [],
           "theta": [[1, 0, 0], [0, -1, 0], [0, 0, -1]]}
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, ["analyze", str(path)])
    assert code == 2 and out == ""
    assert err == ("input error: theta is not a Cartan involution: the "
                   "Killing form on k ∩ [g, g] (dim 1) has signature "
                   "(1, 0, 0), not negative definite\n")


@pytest.mark.parametrize("theta, message", [
    # theta^2 = diag(4, 1, 1)
    ([[2, 0, 0], [0, 1, 0], [0, 0, 1]], "theta is not involutive"),
    # a sign-diagonal involution with [theta E, theta F] = -H != theta H
    ([[1, 0, 0], [0, 1, 0], [0, 0, -1]],
     "theta is not an automorphism (fails on basis pair 1,2)"),
], ids=["not_involutive", "not_an_automorphism"])
def test_a_malformed_theta_exits_2(capsys, tmp_path, theta, message):
    doc = {"schema_version": 1, "name": "sl2_bad_theta", "matrix_size": 2,
           "basis": [[[1, 0], [0, -1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]],
           "subalgebra_basis": [], "theta": theta}
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, ["analyze", str(path)])
    assert (code, out, err) == (2, "", f"input error: {message}\n")


def test_usage_errors_raise_system_exit(capsys):
    with pytest.raises(SystemExit):
        main(["analyze"])          # missing the problem-file argument
    with pytest.raises(SystemExit):
        main(["no-such-command"])


@pytest.mark.parametrize("command, flag", [
    (["orbit-check"], "--samples"),
    (["analyze"], "--samples"),
    (["analyze"], "--conjugate-search"),
    (["catalog", "run", "all"], "--samples"),
], ids=["orbit-check-samples", "analyze-samples", "analyze-conjugate-search",
        "catalog-run-samples"])
def test_a_negative_count_is_a_usage_error(capsys, sl2_so2, command, flag):
    files = [] if command[0] == "catalog" else [sl2_so2]
    with pytest.raises(SystemExit) as exc:
        main(command + [flag, "-5"] + files)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be >= 0, got -5" in captured.err


# every (sub)command's option strings, then its positional arguments
SUBCOMMAND_OPTIONS = {
    (): ["--help", "-h", "command"],
    ("analyze",): ["--conjugate-search", "--format", "--help", "--samples",
                   "--seed", "-h", "file"],
    ("adapted",): ["--conjugate-search", "--format", "--help",
                   "--list-candidates", "--seed", "-h", "file"],
    ("rank",): ["--conjugate-search", "--format", "--help", "--seed", "-h",
                "file"],
    ("normalizer",): ["--conjugate-search", "--format", "--help", "--seed",
                      "-h", "file"],
    ("orbit-check",): ["--conjugate-search", "--format", "--help",
                       "--samples", "--seed", "-h", "file"],
    ("catalog",): ["--help", "-h", "catalog_command"],
    ("catalog", "list"): ["--format", "--help", "-h"],
    ("catalog", "run"): ["--format", "--help", "--samples", "--seed", "-h",
                         "name"],
    ("catalog", "export"): ["--help", "-h", "name"],
}


def subcommand_options(parser, path=()):
    """{command path: sorted option strings + positional names} for the
    parser and every subparser under it."""
    out = {path: sorted(s for a in parser._actions for s in a.option_strings)
           + [a.dest for a in parser._actions if not a.option_strings]}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(subcommand_options(sub, path + (name,)))
    return out


def test_each_subcommand_keeps_its_options():
    assert subcommand_options(build_parser()) == SUBCOMMAND_OPTIONS


def stdout_writes(tree, allowed=()):
    """Lines of every ``print`` without ``file=`` and every use of
    ``sys.stdout`` outside the functions named in ``allowed``."""
    exempt = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name in allowed
              for node in ast.walk(fn)}

    def writes(node):
        if isinstance(node, ast.Call):
            return (getattr(node.func, "id", "") == "print"
                    and not any(k.arg == "file" for k in node.keywords))
        if isinstance(node, ast.ImportFrom) and node.module == "sys":
            return any(a.name == "stdout" for a in node.names)
        return (isinstance(node, ast.Attribute) and node.attr == "stdout"
                and getattr(node.value, "id", "") == "sys")

    return sorted(node.lineno for node in ast.walk(tree)
                  if id(node) not in exempt and writes(node))


def test_stdout_has_one_writer():
    """Only the report printer and ``catalog export`` write to stdout, so
    anything else (diagnostics, traces) cannot move the byte pins."""
    src = Path(__file__).resolve().parent.parent / "src" / "sphlie"
    allowed = {"cli.py": ("_emit", "cmd_catalog_export")}
    found = {path.name: lines for path in sorted(src.glob("*.py"))
             if (lines := stdout_writes(ast.parse(path.read_text("utf-8")),
                                        allowed.get(path.name, ())))}
    assert found == {}, f"stdout writes outside cli._emit: {found}"


def test_the_stdout_lint_sees_a_seeded_print():
    tree = ast.parse("import sys\n"
                     "from sys import stdout\n"
                     "def trace(span):\n"
                     "    print(span)\n"
                     "    print(span, file=sys.stderr)\n"
                     "    print(span, file=sys.stdout)\n"
                     "    sys.stdout.write(span)\n"
                     "def _emit(doc):\n"
                     "    print(doc)\n")
    assert stdout_writes(tree, allowed=("_emit",)) == [2, 4, 6, 7]
    assert stdout_writes(tree) == [2, 4, 6, 7, 9]


def test_one_process_answers_like_separate_runs(capsys, sl2_so2):
    # the parser is built once per process; reusing it must not carry
    # anything from one call to the next.  rank takes no --samples: exit 2
    calls = [["analyze", "--samples", "5", sl2_so2], ["rank", sl2_so2],
             ["catalog", "list"], ["rank", "--samples", "5", sl2_so2],
             ["analyze", "--format", "json", "--samples", "5", sl2_so2]]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    separate = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "sphlie.cli", *argv],
                              capture_output=True, text=True, env=env,
                              check=False)
        separate.append((proc.returncode, proc.stdout))
    together = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        together.append((code, capsys.readouterr().out))
    assert [code for code, _ in together] == [0, 0, 0, 2, 0]
    assert together == separate
