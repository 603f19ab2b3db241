"""The benchmark's three workloads: inputs, timed items and their checks.

Every item has a ``label``, a ``run()`` that does the timed work through
sphlie's public entry points, and a ``check(result)`` that returns a list
of failure messages (empty when the output is correct).  Checks run
outside the timed region.

Importing this module imports sphlie, so the worker imports it inside the
set-up interval it measures.  Library functions are called through their
module attribute (``cli.main``, ``spherical.conjugate_search``, ...) at run
time, so the outside-in tracer sees the top-level call of every item.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path
from random import Random

from sphlie import catalog, cli, orbits, parabolic, problem, spherical
from sphlie.builders import block_embed, sl_basis, so_basis

WORKLOADS = ("catalog", "ladder", "probe")

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# Golden stdout digests exist for CLI seeds 0..CLI_SEEDS-1; a workload
# seed s runs the CLI with --seed s % CLI_SEEDS.
CLI_SEEDS = 10

CATALOG_SAMPLES = 100
LADDER_SAMPLES = 10
TRANSITIVITY_SAMPLES = 100
CONJUGATOR_ROUND_TRIPS = 10
ZERO_SEARCH_BUDGET = 200

_NORMALIZER_FLAGS = ("split_ok", "elementary_ok", "self_normalizing_ok",
                     "same_adapted_ok")


def cli_seed(seed: int) -> int:
    return seed % CLI_SEEDS


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- analyze through the CLI ---------------------------------------------------


def observe(doc: dict) -> dict:
    """The checked facts of one ``analyze --format json`` document."""
    conj = doc.get("conjugation") or {}
    adapted = doc.get("adapted")
    rank = doc.get("rank")
    norm = doc.get("normalizer")
    orbit = doc.get("orbit")
    checks = doc.get("checks")
    return {
        "spherical_at_base": doc.get("spherical_at_base"),
        "needs_conjugation": bool(conj.get("found")),
        "spherical": doc.get("spherical"),
        "adapted_subset": (None if adapted is None
                           else list(adapted["subset_indices"])),
        "candidates_passing": (None if adapted is None
                               else adapted["candidates_passing"]),
        "rank": None if rank is None else rank["value"],
        "normalizer_dim": None if norm is None else norm["dim"],
        "complement_dim": None if norm is None else norm["complement_dim"],
        "split_dim": None if norm is None else norm["split_dim"],
        "compact_dim": None if norm is None else norm["compact_dim"],
        "checks_ok": None if checks is None else all(checks.values()),
        "normalizer_flags_ok": (None if norm is None
                                else all(norm[k] for k in _NORMALIZER_FLAGS)),
        "orbit_ok": None if orbit is None else orbit["ok"],
        "pass": doc.get("pass"),
    }


def certified(spherical_: bool) -> dict:
    """What a spherical pair's report must show (one passing candidate,
    every identity, flag and orbit sample ok), or, without an open orbit,
    no structure blocks and a failing result."""
    ok = True if spherical_ else None
    return {"candidates_passing": 1 if spherical_ else None,
            "checks_ok": ok, "normalizer_flags_ok": ok, "orbit_ok": ok,
            "pass": spherical_}


class CliItem:
    """One ``sphlie analyze FILE --format json`` call with stdout captured."""

    def __init__(self, label: str, argv: list, exit_code: int,
                 expect: dict, golden_digest):
        self.label = label
        self.argv = argv
        self.exit_code = exit_code
        self.expect = expect
        self.golden_digest = golden_digest

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv)
        return code, out.getvalue()

    def check(self, result) -> list:
        code, text = result
        failures = []
        if code != self.exit_code:
            failures.append(f"exit code {code}, expected {self.exit_code}")
        got_digest = digest(text)
        if self.golden_digest is None:
            failures.append("no golden digest recorded")
        elif got_digest != self.golden_digest:
            failures.append(f"stdout sha256 {got_digest[:12]} differs from "
                            f"golden {self.golden_digest[:12]}")
        try:
            seen = observe(json.loads(text))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return failures + [f"unreadable JSON report: {exc!r}"]
        for key, want in self.expect.items():
            if seen[key] != want:
                failures.append(f"{key}: expected {want!r}, got "
                                f"{seen[key]!r}")
        return failures


def _analyze_argv(path: Path, budget: int, samples: int, seed: int) -> list:
    return ["analyze", str(path), "--format", "json",
            "--conjugate-search", str(budget), "--samples", str(samples),
            "--seed", str(cli_seed(seed))]


def _golden_for(golden, workload: str, seed: int, label: str):
    if golden is None:
        return None
    return golden.get(workload, {}).get(str(cli_seed(seed)), {}).get(label)


def _write_problem(workdir: Path, prob) -> Path:
    path = workdir / f"{prob.name}.json"
    path.write_text(problem.problem_to_json(prob), encoding="utf-8")
    return path


def catalog_items(seed: int, workdir: Path, golden) -> list:
    """The 12 frozen catalog entries, each certified by one CLI call."""
    items = []
    for entry in sorted(catalog.catalog_entries(), key=lambda e: e.name):
        exp = entry.expected
        expect = {
            "spherical_at_base": exp.spherical_at_base,
            "needs_conjugation": exp.needs_conjugation,
            "spherical": exp.spherical,
            "adapted_subset": (None if exp.adapted_subset is None
                               else list(exp.adapted_subset)),
            "rank": exp.rank,
            # analyze reports a normalizer block only for spherical pairs
            "normalizer_dim": exp.normalizer_dim if exp.spherical else None,
            "complement_dim": exp.complement_dim,
            "split_dim": exp.split_dim,
            "compact_dim": exp.compact_dim,
            **certified(exp.spherical),
        }
        path = _write_problem(workdir, entry.problem)
        items.append(CliItem(
            entry.name,
            _analyze_argv(path, entry.search_budget, CATALOG_SAMPLES, seed),
            0 if exp.spherical else 1, expect,
            _golden_for(golden, "catalog", seed, entry.name)))
    return items


_J = ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))

# Hinted product: one positivity sign per sl(2) factor.
SL2X6_HINT = (1, -1, 1, -1, 1, -1)


def ladder_problems() -> list:
    """(problem, rank, normalizer dim) for each ladder pair; the answers are
    derived in ladder_derivation.md and confirmed by tests/oracles.py."""
    sl2x6 = [block_embed(m, 12, off) for off in range(0, 12, 2)
             for m in sl_basis(2)]
    so2x6 = [block_embed(_J, 12, off) for off in range(0, 12, 2)]
    return [
        (problem.Problem("sl4_so4", 4, tuple(sl_basis(4)),
                         tuple(so_basis(4))), 3, 6),
        (problem.Problem("sl5_so5", 5, tuple(sl_basis(5)),
                         tuple(so_basis(5))), 4, 10),
        (problem.Problem("sl2x6_so2x6_hinted", 12, tuple(sl2x6),
                         tuple(so2x6), minimal_parabolic_hint=SL2X6_HINT),
         6, 6),
    ]


def ladder_items(seed: int, workdir: Path, golden) -> list:
    items = []
    for prob, rank, ndim in ladder_problems():
        expect = {
            "spherical_at_base": True, "needs_conjugation": False,
            "spherical": True, "adapted_subset": [], "rank": rank,
            "normalizer_dim": ndim, "complement_dim": 0, "split_dim": 0,
            "compact_dim": 0, **certified(True),
        }
        path = _write_problem(workdir, prob)
        items.append(CliItem(
            prob.name, _analyze_argv(path, 0, LADDER_SAMPLES, seed), 0,
            expect, _golden_for(golden, "ladder", seed, prob.name)))
    return items


# -- library paths the CLI does not expose ------------------------------------


class TransitivityItem:
    def __init__(self, label: str, pair, seed: int, verdict: str,
                 samples_run: int):
        self.label = label
        self.pair = pair
        self.seed = seed
        self.verdict = verdict
        self.samples_run = samples_run

    def run(self):
        return spherical.compact_transitivity_check(
            self.pair, samples=TRANSITIVITY_SAMPLES, seed=self.seed)

    def check(self, rep) -> list:
        failures = []
        if rep.verdict != self.verdict:
            failures.append(f"verdict {rep.verdict!r}, expected "
                            f"{self.verdict!r}")
        if rep.samples_run != self.samples_run:
            failures.append(f"samples_run {rep.samples_run}, expected "
                            f"{self.samples_run}")
        if rep.compact_type != (self.verdict == "consistent-with-compact"):
            failures.append(f"compact_type {rep.compact_type} contradicts "
                            f"the verdict")
        return failures


def _commutator(x, y):
    n = len(x)
    return [[sum(x[i][k] * y[k][j] - y[i][k] * x[k][j] for k in range(n))
             for j in range(n)] for i in range(n)]


def ad_exp_on_matrices(u_mat, x_mat):
    """e^{ad U} X = sum_k (ad U)^k X / k!, on plain nested lists; written
    apart from sphlie's own exponential so it can verify it."""
    n = len(x_mat)
    total = [list(row) for row in x_mat]
    term = total
    for k in range(1, n * n + 2):
        term = [[e / k for e in row] for row in _commutator(u_mat, term)]
        if all(e == 0 for row in term for e in row):
            return total
        total = [[a + b for a, b in zip(r, s)] for r, s in zip(total, term)]
    raise ArithmeticError("ad U is not nilpotent on X")


class ConjugatorItem:
    """Invert w = e^{ad U}x0 - x0 with solve_conjugator; the check
    re-verifies the returned U' on the matrix realization."""

    def __init__(self, label: str, dp, w):
        self.label = label
        self.dp = dp
        self.w = w

    def run(self):
        return orbits.solve_conjugator(self.dp, self.w)

    def check(self, u) -> list:
        g = self.dp.algebra
        failures = []
        if not self.dp.u.contains(u):
            failures.append("conjugator is not an element of u")
        target = [list(r) for r in g.to_matrix(
            tuple(a + b for a, b in zip(self.dp.x0, self.w)))]
        moved = ad_exp_on_matrices(g.to_matrix(u), g.to_matrix(self.dp.x0))
        if moved != target:
            failures.append("e^{ad U'} x0 != x0 + w on the matrices")
        return failures


class ZeroSearchItem:
    def __init__(self, label: str, pair, seed: int):
        self.label = label
        self.pair = pair
        self.seed = seed

    def run(self):
        return spherical.conjugate_search(self.pair, ZERO_SEARCH_BUDGET,
                                          seed=self.seed)

    def check(self, found) -> list:
        if found is None:
            return []
        return [f"h = 0 became spherical after {found.attempts} attempts"]


_U_COEFFS = tuple(Fraction(p, q) for p in range(-3, 4) for q in (1, 2)
                  if p != 0)


def conjugator_targets(dp, seed: int, count: int) -> list:
    """Seeded nonzero targets w = e^{ad U}x0 - x0 for random U in u."""
    rng = Random(seed)
    g = dp.algebra
    out = []
    while len(out) < count:
        coeffs = [rng.choice(_U_COEFFS + (Fraction(0),))
                  for _ in dp.u.basis]
        u = tuple(sum((c * b[i] for c, b in zip(coeffs, dp.u.basis)),
                      Fraction(0)) for i in range(g.dim))
        w = tuple(a - b for a, b in zip(orbits.exp_ad_apply(g, u, dp.x0),
                                         dp.x0))
        if any(w):
            out.append(w)
    return out


def probe_items(seed: int, workdir: Path, golden) -> list:
    """Transitivity sampling, conjugator round trips and an exhausted
    conjugate search.  Building the pairs and the sl(4) derivation pair
    that the targets need is set-up, not timed work."""
    entries = {e.name: e for e in catalog.catalog_entries()}
    sl4_problem = ladder_problems()[0][0]
    s = cli_seed(seed)
    sl3 = problem.build_pair(entries["sl3_so3"].problem)
    sl4 = problem.build_pair(sl4_problem)
    borel = problem.build_pair(entries["sl2_opposite_borel"].problem)
    zero = problem.build_pair(entries["sl2_zero"].problem)
    report = spherical.structure_report(sl4)
    x0 = parabolic.characteristic_element(sl4.cartan, report.adapted.subset)
    dp = orbits.derivation_pair(sl4.algebra, x0, report.adapted.nilradical)
    items = [
        TransitivityItem("transitivity_sl3_so3", sl3, s,
                         "consistent-with-compact", TRANSITIVITY_SAMPLES),
        TransitivityItem("transitivity_sl4_so4", sl4, s,
                         "consistent-with-compact", TRANSITIVITY_SAMPLES),
        TransitivityItem("transitivity_sl2_opposite_borel", borel, s,
                         "witness-of-noncompactness", 2),
    ]
    for i, w in enumerate(conjugator_targets(dp, seed,
                                             CONJUGATOR_ROUND_TRIPS)):
        items.append(ConjugatorItem(f"solve_conjugator_sl4_so4#{i}", dp, w))
    items.append(ZeroSearchItem("conjugate_search_sl2_zero", zero, s))
    return items


_BUILDERS = {"catalog": catalog_items, "ladder": ladder_items,
             "probe": probe_items}


def build_items(workload: str, seed: int, workdir: Path, golden) -> list:
    """Write the workload's inputs under ``workdir`` and return its items."""
    workdir.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[workload](seed, workdir, golden)
