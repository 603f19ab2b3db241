"""Command-line frontend: exact analyses of (g, h) pairs from problem files.

Commands: analyze, adapted, rank, normalizer, orbit-check (the rows of one
table, ``_REPORTS``, served by ``cmd_report``), and catalog {list, run,
export}.  A report is built once, as its JSON document (``_report_doc``);
--format json prints it and the text form (default) is rendered from it
(``_report_text``), so every printed value has a JSON field.  The JSON is
byte-stable for a fixed input and seed, carries a schema_version, and
renders every rational exactly (integers as ints, others as "p/q"
strings).  Only ``_emit`` and ``catalog export`` write to stdout.  Exit
codes: 0 all requested checks pass, 1 a check failed, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .catalog import catalog_entries, get_entry, run_entry
from . import errors
from .linalg import Subspace
from .normalizer import normalizer_report
from .problem import (
    Problem,
    find_open_pair,
    format_rational,
    parse_problem,
    problem_to_json,
)
from .spherical import structure_report

SCHEMA_VERSION = 1

_INPUT_ERRORS = (errors.ProblemFormatError, errors.NotClosed,
                 errors.DimensionMismatch, errors.NotReductive,
                 errors.NotCartanInvolution)
_CHECK_ERRORS = (errors.NotSpherical, errors.UniquenessViolation,
                 errors.CertificationError, errors.SpectrumError,
                 errors.UnreachableTarget, errors.NotNilpotent)

_NORMALIZER_FLAGS = ("split_ok", "elementary_ok", "self_normalizing_ok",
                     "same_adapted_ok")

# the five local-structure identities of schema 1's constant "checks" block
_CHECKS = ("q_plus_h_is_g", "q_meets_h_inside_levi",
           "noncompact_levi_ideals_in_h", "levi_split_by_p_and_h",
           "nilradical_complement")


# -- the report document -------------------------------------------------------


def vec_json(v) -> list:
    return [format_rational(x) for x in v]


def subspace_json(s: Subspace) -> list:
    return [vec_json(b) for b in s.basis]


def _report_doc(args, problem: Problem, want: set) -> dict:
    """The JSON document of a report with the blocks in ``want``, and its
    ``pass``: the pair is open and every normalizer flag in it holds (the
    structure identities and the orbit identity are proved,
    :class:`~sphlie.StructureReport` and :func:`~sphlie.derivation_pair`,
    so ``checks`` and the orbit block's ``ok`` are constants)."""
    budget = args.conjugate_search
    _, ok, defect, search, final = find_open_pair(problem, budget, args.seed)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "name": problem.name,
        "seed": args.seed,
        "spherical_at_base": ok,
        "defect_at_base": defect,
        "conjugation": None,
        "spherical": final is not None,
    }
    if search is not None:
        doc["conjugation"] = {
            "found": True,
            "attempts": search.attempts,
            "description": search.description,
            "conjugated_h": subspace_json(search.conjugated),
        }
    elif not ok and budget > 0:
        doc["conjugation"] = {"found": False, "budget": budget}
    if final is None:
        doc.update(dict.fromkeys(want - {"candidates"}))
        if "checks" in want:
            doc["levi_adjusted"] = None
        doc["pass"] = False
        return doc

    report = structure_report(final)
    simple = final.cartan.simple_roots
    flags = []
    if "adapted" in want:
        doc["adapted"] = {
            "subset_indices": list(report.adapted.subset_indices),
            "subset_roots": [vec_json(r) for r in report.adapted.subset],
            "simple_roots": [vec_json(r) for r in simple],
            "candidates_passing": report.candidates_passing,
            "levi_dim": report.adapted.levi.dim,
            "nilradical_dim": report.adapted.nilradical.dim,
        }
    if "checks" in want:
        doc["checks"] = dict.fromkeys(_CHECKS, True)
        doc["levi_adjusted"] = bool(report.levi_adjustment.factors)
    if "rank" in want:
        doc["rank"] = {
            "value": report.rank,
            "split_part_of_h": subspace_json(report.h_split_part),
            "rank_torus": subspace_json(report.rank_torus),
            "reductive_part_of_h_dim": report.h_reductive_part.dim,
        }
    if "candidates" in want:
        doc["candidates"] = [
            {"indices": list(s), "roots": [vec_json(simple[i]) for i in s]}
            for s in report.candidates]
    if "normalizer" in want:
        nrep = normalizer_report(report)
        doc["normalizer"] = {
            "dim": nrep.normalizer.dim,
            "basis": subspace_json(nrep.normalizer),
            "complement_dim": nrep.complement.dim,
            "split_dim": nrep.split_part.dim,
            "compact_dim": nrep.compact_factor.dim,
            **{key: getattr(nrep, key) for key in _NORMALIZER_FLAGS},
        }
        flags += (getattr(nrep, key) for key in _NORMALIZER_FLAGS)
    if "orbit" in want:
        dp = report.adapted.derivation
        # ok, samples_run and witness leave with the next schema version
        doc["orbit"] = {
            "ok": True,
            "samples_run": args.samples,
            "witness": None,
            "characteristic_element": vec_json(dp.x0),
            "layer_eigenvalues": [format_rational(lam) for lam, _ in dp.layers],
        }
    doc["pass"] = all(flags)
    return doc


# -- text rendering of a document ----------------------------------------------


def _ok(flag: bool) -> str:
    return "ok" if flag else "FAILED"


def _vectors_text(vectors: list) -> str:
    """JSON vectors as "(a, b), (c, d)"; "0" for none, the zero space."""
    return ", ".join("(" + ", ".join(map(str, v)) + ")"
                     for v in vectors) or "0"


def _report_text(doc: dict, label: str) -> list:
    """The text lines of a report document, for the problem ``label``."""
    lines = [f"problem: {label}",
             f"spherical at base point: "
             f"{'yes' if doc['spherical_at_base'] else 'no'} "
             f"(defect {doc['defect_at_base']})"]
    conj = doc["conjugation"]
    if conj is not None and conj["found"]:
        lines += [f"conjugation: found after {conj['attempts']} attempts: "
                  f"{conj['description']}",
                  "spherical after conjugation: yes"]
    elif conj is not None:
        lines.append(f"conjugation: inconclusive within budget "
                     f"{conj['budget']}")
    if not doc["spherical"]:
        lines.append("no open orbit: structure analysis not available")
    if (a := doc.get("adapted")) is not None:
        count = a["candidates_passing"]
        lines += [f"adapted subset: indices {a['subset_indices']} of "
                  f"{len(a['simple_roots'])} simple roots ({count} passing "
                  f"candidate{'s' if count != 1 else ''})",
                  f"  levi dim {a['levi_dim']}, "
                  f"nilradical dim {a['nilradical_dim']}"]
    if doc.get("checks") is not None:
        lines.append("structure checks:")
        lines += [f"  {key}: {_ok(val)}" for key, val in doc["checks"].items()]
        if doc["levi_adjusted"]:
            lines.append("  (verified after moving to a compatible Levi "
                         "complement)")
    if (r := doc.get("rank")) is not None:
        lines += [f"rank: {r['value']}",
                  f"  split part of h in the center of the levi: "
                  f"{_vectors_text(r['split_part_of_h'])}",
                  f"  torus acting on the quotient: "
                  f"{_vectors_text(r['rank_torus'])}"]
    if doc.get("candidates") is not None:
        lines.append("passing candidate subsets:")
        lines += [f"  indices {c['indices']}" for c in doc["candidates"]]
    if (n := doc.get("normalizer")) is not None:
        lines.append(f"normalizer: dim {n['dim']} (complement "
                     f"{n['complement_dim']} = split {n['split_dim']} + "
                     f"compact {n['compact_dim']})")
        lines += [f"  {key}: {_ok(n[key])}" for key in _NORMALIZER_FLAGS]
    if (o := doc.get("orbit")) is not None:
        lines.append(f"orbit identity: {_ok(o['ok'])} "
                     f"({o['samples_run']} samples)")
    lines.append(f"result: {'PASS' if doc['pass'] else 'FAIL'}")
    return lines


def _emit(doc: dict, fmt: str, text) -> None:
    """Print the document as JSON, or the lines ``text(doc)`` renders."""
    if fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print("\n".join(text(doc)))


# -- commands ------------------------------------------------------------------

# command: (report blocks, takes --samples, help)
_REPORTS = {
    "analyze": (frozenset({"adapted", "checks", "rank", "normalizer",
                           "orbit"}), True,
                "full certificate: sphericity, adapted parabolic, structure "
                "checks, rank, normalizer, orbit identity"),
    "adapted": (frozenset({"adapted"}), False,
                "the unique adapted parabolic"),
    "rank": (frozenset({"adapted", "rank"}), False, "rank of the open orbit"),
    "normalizer": (frozenset({"adapted", "normalizer"}), False,
                   "normalizer of h and its verified splitting"),
    "orbit-check": (frozenset({"adapted", "orbit"}), True,
                    "the nilpotent orbit identity, proved from its "
                    "certified grading"),
}


def cmd_report(args) -> int:
    """Any of the five report commands: build its document, then print it."""
    problem = parse_problem(args.file)
    want = _REPORTS[args.command][0]
    if args.list_candidates:
        want = want | {"candidates"}
    doc = _report_doc(args, problem, want)
    _emit(doc, args.format,
          lambda d: _report_text(d, problem.name or args.file))
    return 0 if doc["pass"] else 1


def _catalog_list_text(doc: dict) -> list:
    lines = []
    for e in doc["entries"]:
        rank = "-" if e["rank"] is None else str(e["rank"])
        lines += [f"{e['name']:24s} size {e['matrix_size']}  spherical "
                  f"{'yes' if e['spherical'] else 'no ':3s} rank {rank}",
                  f"    {e['notes']}"]
    return lines


def cmd_catalog_list(args) -> int:
    entries = sorted(catalog_entries(), key=lambda e: e.name)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "catalog-list",
        "entries": [
            {
                "name": e.name,
                "matrix_size": e.problem.matrix_size,
                "dim": len(e.problem.basis),
                "subalgebra_dim": len(e.problem.subalgebra_basis),
                "search_budget": e.search_budget,
                "spherical": e.expected.spherical,
                "rank": e.expected.rank,
                "notes": e.notes,
            }
            for e in entries
        ],
    }
    _emit(doc, args.format, _catalog_list_text)
    return 0


def _catalog_run_text(doc: dict) -> list:
    lines = []
    for r in doc["results"]:
        lines.append(f"{r['name']:24s} {'PASS' if r['passed'] else 'FAIL'}")
        lines += [f"    {f}" for f in r["failures"]]
    passed = sum(1 for r in doc["results"] if r["passed"])
    lines.append(f"{len(doc['results'])} entries, {passed} passed")
    return lines


def cmd_catalog_run(args) -> int:
    if args.name == "all":
        entries = sorted(catalog_entries(), key=lambda e: e.name)
    else:
        try:
            entries = [get_entry(args.name)]
        except KeyError as exc:
            print(f"input error: {exc.args[0]}", file=sys.stderr)
            return 2
    results = [run_entry(e, seed=args.seed) for e in entries]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "catalog-run",
        "seed": args.seed,
        "samples": args.samples,
        "results": [
            {
                "name": r.entry.name,
                "passed": r.passed,
                "failures": list(r.failures),
                "spherical": r.final_pair is not None,
                "search": None if r.search is None else {
                    "attempts": r.search.attempts,
                    "description": r.search.description,
                },
                "rank": None if r.report is None else r.report.rank,
            }
            for r in results
        ],
        "pass": all(r.passed for r in results),
    }
    _emit(doc, args.format, _catalog_run_text)
    return 0 if doc["pass"] else 1


def cmd_catalog_export(args) -> int:
    try:
        entry = get_entry(args.name)
    except KeyError as exc:
        print(f"input error: {exc.args[0]}", file=sys.stderr)
        return 2
    sys.stdout.write(problem_to_json(entry.problem))
    return 0


# -- parser --------------------------------------------------------------------


def nonnegative_int(text: str) -> int:
    """argparse type of a count: an int >= 0, so a negative one exits 2."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_common(sub, samples: bool) -> None:
    sub.add_argument("--conjugate-search", type=nonnegative_int, default=0,
                     metavar="N", dest="conjugate_search",
                     help="try up to N exact group elements to move h into "
                          "an open position (default 0: no search)")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for the conjugate search's randomized "
                          "candidates (default 0)")
    sub.add_argument("--format", choices=("text", "json"), default="text",
                     help="report format (default text)")
    if samples:
        sub.add_argument("--samples", type=nonnegative_int, default=100,
                         metavar="K",
                         help="sample count echoed in the orbit report "
                              "(default 100)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and reused: parsing keeps
    no state on it, and building it costs more than a small analysis."""
    parser = argparse.ArgumentParser(
        prog="sphlie",
        description="Exact open-orbit analysis of pairs (g, h) of rational "
                    "matrix Lie algebras.")
    subs = parser.add_subparsers(dest="command", required=True)

    for command, (_, samples, text) in _REPORTS.items():
        p = subs.add_parser(command, help=text)
        p.add_argument("file", help="problem file (JSON)")
        if command == "adapted":
            p.add_argument("--list-candidates", action="store_true",
                           help="list every subset passing the complement "
                                "test")
        _add_common(p, samples)
        p.set_defaults(func=cmd_report, list_candidates=False)

    cat = subs.add_parser("catalog", help="built-in example pairs")
    catsubs = cat.add_subparsers(dest="catalog_command", required=True)

    p = catsubs.add_parser("list", help="list entries and expectations")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_catalog_list)

    p = catsubs.add_parser("run", help="run one entry (or all) against its "
                           "frozen expectations")
    p.add_argument("name", help="entry name, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=nonnegative_int, default=100,
                   metavar="K")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_catalog_run)

    p = catsubs.add_parser("export", help="print an entry as a problem file")
    p.add_argument("name")
    p.set_defaults(func=cmd_catalog_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except _CHECK_ERRORS as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
