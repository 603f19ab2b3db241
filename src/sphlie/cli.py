"""Command-line frontend: exact analyses of (g, h) pairs from problem files.

Commands: analyze, adapted, rank, normalizer, orbit-check, and catalog
{list, run, export}.  Reports are text (default) or JSON (--format json);
the JSON form is byte-stable for a fixed input and seed, carries a
schema_version, and renders every rational exactly (integers as integers,
other rationals as "p/q" strings).  Exit codes: 0 all requested checks
pass, 1 a check failed, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .catalog import catalog_entries, get_entry, run_entry
from .errors import (
    CertificationError,
    DimensionMismatch,
    NotCartanInvolution,
    NotClosed,
    NotNilpotent,
    NotReductive,
    NotSpherical,
    ProblemFormatError,
    SpectrumError,
    UniquenessViolation,
    UnreachableTarget,
)
from .linalg import Subspace
from .normalizer import normalizer_report
from .orbits import parabolic_orbit_check
from .problem import (
    Problem,
    find_open_pair,
    format_rational,
    parse_problem,
    problem_to_json,
)
from .spherical import SphericalPair, structure_report

SCHEMA_VERSION = 1

_INPUT_ERRORS = (ProblemFormatError, NotClosed, DimensionMismatch,
                 NotReductive, NotCartanInvolution)
_CHECK_ERRORS = (NotSpherical, UniquenessViolation, CertificationError,
                 SpectrumError, UnreachableTarget, NotNilpotent)


# -- exact rendering ----------------------------------------------------------


def fmt_frac(f) -> str:
    v = format_rational(f)
    return str(v)


def vec_json(v) -> list:
    return [format_rational(x) for x in v]


def vec_text(v) -> str:
    return "(" + ", ".join(fmt_frac(x) for x in v) + ")"


def subspace_json(s: Subspace) -> list:
    return [vec_json(b) for b in s.basis]


def subspace_text(s: Subspace) -> str:
    if s.dim == 0:
        return "0"
    return ", ".join(vec_text(b) for b in s.basis)


def root_json(root) -> list:
    return [format_rational(x) for x in root]


def _base_doc(command: str, problem: Problem, seed: int) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "name": problem.name,
        "seed": seed,
    }


def _sphericity_block(doc: dict, ok: bool, defect: int, search, budget: int,
                      final) -> None:
    doc["spherical_at_base"] = ok
    doc["defect_at_base"] = defect
    if ok or budget == 0:
        doc["conjugation"] = None
    elif search is None:
        doc["conjugation"] = {"found": False, "budget": budget}
    else:
        doc["conjugation"] = {
            "found": True,
            "attempts": search.attempts,
            "description": search.description,
            "conjugated_h": subspace_json(search.conjugated),
        }
    doc["spherical"] = final is not None


def _sphericity_text(lines: list, doc: dict) -> None:
    ok = doc["spherical_at_base"]
    lines.append(f"spherical at base point: {'yes' if ok else 'no'} "
                 f"(defect {doc['defect_at_base']})")
    conj = doc["conjugation"]
    if conj is not None:
        if conj["found"]:
            lines.append(f"conjugation: found after {conj['attempts']} "
                         f"attempts: {conj['description']}")
        else:
            lines.append("conjugation: inconclusive within budget "
                         f"{conj['budget']}")
    if not ok and conj is not None and conj["found"]:
        lines.append("spherical after conjugation: yes")


def _structure_blocks(doc: dict, lines: list, final: SphericalPair,
                      want: set) -> tuple:
    """Fill the requested report blocks; returns (report, passed)."""
    report = structure_report(final)
    cd = final.cartan
    passed = True

    if "adapted" in want:
        count = report.candidates_passing
        doc["adapted"] = {
            "subset_indices": list(report.adapted.subset_indices),
            "subset_roots": [root_json(r) for r in report.adapted.subset],
            "simple_roots": [root_json(r) for r in cd.simple_roots],
            "candidates_passing": count,
            "levi_dim": report.adapted.levi.dim,
            "nilradical_dim": report.adapted.nilradical.dim,
        }
        lines.append(f"adapted subset: indices "
                     f"{list(report.adapted.subset_indices)} of "
                     f"{len(cd.simple_roots)} simple roots "
                     f"({count} passing candidate"
                     f"{'s' if count != 1 else ''})")
        lines.append(f"  levi dim {report.adapted.levi.dim}, "
                     f"nilradical dim {report.adapted.nilradical.dim}")

    if "checks" in want:
        doc["checks"] = dict(report.checks)
        doc["levi_adjusted"] = bool(report.levi_adjustment.factors)
        lines.append("structure checks:")
        for key, val in report.checks.items():
            lines.append(f"  {key}: {'ok' if val else 'FAILED'}")
        if doc["levi_adjusted"]:
            lines.append("  (verified after moving to a compatible Levi "
                         "complement)")
        passed = passed and all(report.checks.values())

    if "rank" in want:
        doc["rank"] = {
            "value": report.rank,
            "split_part_of_h": subspace_json(report.h_split_part),
            "rank_torus": subspace_json(report.rank_torus),
            "reductive_part_of_h_dim": report.h_reductive_part.dim,
        }
        lines.append(f"rank: {report.rank}")
        lines.append(f"  split part of h in the center of the levi: "
                     f"{subspace_text(report.h_split_part)}")
        lines.append(f"  torus acting on the quotient: "
                     f"{subspace_text(report.rank_torus)}")

    return report, passed


def _normalizer_block(doc: dict, lines: list, report) -> bool:
    nrep = normalizer_report(report)
    flags = {
        "split_ok": nrep.split_ok,
        "elementary_ok": nrep.elementary_ok,
        "self_normalizing_ok": nrep.self_normalizing_ok,
        "same_adapted_ok": nrep.same_adapted_ok,
    }
    doc["normalizer"] = {
        "dim": nrep.normalizer.dim,
        "basis": subspace_json(nrep.normalizer),
        "complement_dim": nrep.complement.dim,
        "split_dim": nrep.split_part.dim,
        "compact_dim": nrep.compact_factor.dim,
        **flags,
    }
    lines.append(f"normalizer: dim {nrep.normalizer.dim} "
                 f"(complement {nrep.complement.dim} = split "
                 f"{nrep.split_part.dim} + compact "
                 f"{nrep.compact_factor.dim})")
    for key, val in flags.items():
        lines.append(f"  {key}: {'ok' if val else 'FAILED'}")
    return all(flags.values())


def _orbit_block(doc: dict, lines: list, report, samples: int,
                 seed: int) -> bool:
    dp, orb = parabolic_orbit_check(report.adapted, samples, seed)
    doc["orbit"] = {
        "ok": orb.ok,
        "samples_run": orb.samples_run,
        "witness": None if orb.witness is None else vec_json(orb.witness),
        "characteristic_element": vec_json(dp.x0),
        "layer_eigenvalues": [format_rational(lam) for lam, _ in dp.layers],
    }
    lines.append(f"orbit identity: {'ok' if orb.ok else 'FAILED'} "
                 f"({orb.samples_run} samples)")
    if orb.witness is not None:
        lines.append(f"  witness: {vec_text(orb.witness)}")
    return orb.ok


def _emit(doc: dict, lines: list, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))


# -- commands ------------------------------------------------------------------


def _report_command(args, command: str, want: set) -> int:
    problem = parse_problem(args.file)
    seed = args.seed
    doc = _base_doc(command, problem, seed)
    lines = [f"problem: {problem.name or args.file}"]
    _, ok, defect, search, final = find_open_pair(
        problem, args.conjugate_search, seed)
    _sphericity_block(doc, ok, defect, search, args.conjugate_search, final)
    _sphericity_text(lines, doc)

    passed = final is not None
    if final is None:
        for key in sorted(want - {"candidates"}):
            doc[key] = None
        if "checks" in want:
            doc["levi_adjusted"] = None
        lines.append("no open orbit: structure analysis not available")
    else:
        report, ok_struct = _structure_blocks(doc, lines, final, want)
        passed = passed and ok_struct
        if "candidates" in want:
            simple = final.cartan.simple_roots
            doc["candidates"] = [
                {"indices": list(s), "roots": [root_json(simple[i]) for i in s]}
                for s in report.candidates]
            lines.append("passing candidate subsets:")
            for s in report.candidates:
                lines.append(f"  indices {list(s)}")
        if "normalizer" in want:
            passed = _normalizer_block(doc, lines, report) and passed
        if "orbit" in want:
            passed = _orbit_block(doc, lines, report, args.samples,
                                  seed) and passed

    doc["pass"] = passed
    lines.append(f"result: {'PASS' if passed else 'FAIL'}")
    _emit(doc, lines, args.format)
    return 0 if passed else 1


def cmd_analyze(args) -> int:
    return _report_command(args, "analyze",
                           {"adapted", "checks", "rank", "normalizer",
                            "orbit"})


def cmd_adapted(args) -> int:
    want = {"adapted"}
    if args.list_candidates:
        want.add("candidates")
    return _report_command(args, "adapted", want)


def cmd_rank(args) -> int:
    return _report_command(args, "rank", {"adapted", "rank"})


def cmd_normalizer(args) -> int:
    return _report_command(args, "normalizer", {"adapted", "normalizer"})


def cmd_orbit_check(args) -> int:
    return _report_command(args, "orbit-check", {"adapted", "orbit"})


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
    lines = []
    for e in entries:
        rank = "-" if e.expected.rank is None else str(e.expected.rank)
        lines.append(f"{e.name:24s} size {e.problem.matrix_size}  "
                     f"spherical {'yes' if e.expected.spherical else 'no ':3s}"
                     f" rank {rank}")
        lines.append(f"    {e.notes}")
    _emit(doc, lines, args.format)
    return 0


def cmd_catalog_run(args) -> int:
    if args.name == "all":
        entries = sorted(catalog_entries(), key=lambda e: e.name)
    else:
        try:
            entries = [get_entry(args.name)]
        except KeyError as exc:
            print(f"input error: {exc.args[0]}", file=sys.stderr)
            return 2
    results = [run_entry(e, seed=args.seed, orbit_samples=args.samples)
               for e in entries]
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
    }
    lines = []
    for r in doc["results"]:
        lines.append(f"{r['name']:24s} {'PASS' if r['passed'] else 'FAIL'}")
        for f in r["failures"]:
            lines.append(f"    {f}")
    ok = all(r.passed for r in results)
    doc["pass"] = ok
    lines.append(f"{len(results)} entries, "
                 f"{sum(1 for r in results if r.passed)} passed")
    _emit(doc, lines, args.format)
    return 0 if ok else 1


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


def _add_common(sub, samples: bool = False) -> None:
    sub.add_argument("--conjugate-search", type=nonnegative_int, default=0,
                     metavar="N", dest="conjugate_search",
                     help="try up to N exact group elements to move h into "
                          "an open position (default 0: no search)")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for deterministic sampling (default 0)")
    sub.add_argument("--format", choices=("text", "json"), default="text",
                     help="report format (default text)")
    if samples:
        sub.add_argument("--samples", type=nonnegative_int, default=100,
                         metavar="K",
                         help="number of exact random samples (default 100)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and reused: parsing keeps
    no state on it, and building it costs more than a small analysis."""
    parser = argparse.ArgumentParser(
        prog="sphlie",
        description="Exact open-orbit analysis of pairs (g, h) of rational "
                    "matrix Lie algebras.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="full certificate: sphericity, "
                        "adapted parabolic, structure checks, rank, "
                        "normalizer, orbit sampling")
    p.add_argument("file", help="problem file (JSON)")
    _add_common(p, samples=True)
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("adapted", help="the unique adapted parabolic")
    p.add_argument("file")
    p.add_argument("--list-candidates", action="store_true",
                   help="list every subset passing the complement test")
    _add_common(p)
    p.set_defaults(func=cmd_adapted, samples=100)

    p = subs.add_parser("rank", help="rank of the open orbit")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=cmd_rank, samples=100)

    p = subs.add_parser("normalizer", help="normalizer of h and its "
                        "verified splitting")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=cmd_normalizer, samples=100)

    p = subs.add_parser("orbit-check", help="sample the nilpotent orbit "
                        "identity")
    p.add_argument("file")
    _add_common(p, samples=True)
    p.set_defaults(func=cmd_orbit_check)

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
