"""structure_report tests one local-structure identity, l_n ⊆ h_std, and
proves the rest from the certificates behind it (StructureReport's
docstring); normalizer_report proves two parts of split_ok by construction.
Every proved identity is rechecked here by the independent oracle of
tests/oracles.py, which shares no code with ``sphlie.linalg``, on the open
catalog pairs on g's own and on mixed bases, on the ladder pairs, and on
each of these with h moved by exp(X), X ∈ n.  Ad(exp X) fixes p, so every
moved pair stays open.  The catalog pairs on their own basis, unmoved, are
rechecked by tests/test_acceptance.py's criterion 2.  A move by exp(X) also
keeps every verdict: rank, the adapted roots, the normalizer dims and
all_ok."""

import random

import pytest

from sphlie.catalog import catalog_entries, get_entry
from sphlie.normalizer import normalizer_report
from sphlie.problem import find_open_pair
from sphlie.spherical import (
    GroupWord,
    is_spherical,
    spherical_pair,
    structure_report,
)
from structure_recheck import identity_failures
from test_enumeration import ladder_problems
from test_exact_scalars import remixed

MOVE_SEEDS = range(6)
LADDER = {p.name: p for p in ladder_problems()}


def moved(pair, seed):
    """pair with h moved by exp(X), X ∈ n with integer coordinates in
    [-3, 3] on n's basis."""
    cd = pair.cartan
    rng = random.Random(seed)
    coords = [rng.randint(-3, 3) for _ in cd.n.basis]
    x = tuple(sum(c * v[i] for c, v in zip(coords, cd.n.basis))
              for i in range(cd.algebra.dim))
    return spherical_pair(cd, GroupWord(cd.algebra, (x,)).image(pair.h))


BASES = ([(e.name, seed)
          for e in sorted(catalog_entries(), key=lambda e: e.name)
          if e.expected.spherical for seed in (None, *range(6))]
         + [(name, None) for name in LADDER])


def problem_and_budget(name):
    """The problem of a catalog entry or ladder pair, with the search
    budget that opens it."""
    if name in LADDER:
        return LADDER[name], 0
    entry = get_entry(name)
    return entry.problem, entry.search_budget


@pytest.mark.parametrize("name, basis_seed", BASES)
def test_every_proved_identity_holds_by_the_oracle(name, basis_seed):
    problem, budget = problem_and_budget(name)
    if basis_seed is not None:
        problem = remixed(problem, basis_seed)
    final = find_open_pair(problem, budget, 0)[4]
    if final is None:   # a mixed basis can hide the conjugate (BASIS_BOUND)
        pytest.skip("no open pair within the entry's search budget")
    pairs = [moved(final, seed) for seed in MOVE_SEEDS]
    if name in LADDER or basis_seed is not None:
        # the unmoved catalog pair on its own basis is the one
        # test_acceptance's criterion 2 rechecks
        pairs.append(final)
    for pair in pairs:
        assert is_spherical(pair)[0]
        sr = structure_report(pair)
        assert identity_failures(sr, normalizer_report(sr)) == []


# -- verdicts that do not depend on where h sits in its N-orbit -----------------


def verdicts(pair):
    """rank, the adapted subset's roots, the normalizer dims and all_ok."""
    sr = structure_report(pair)
    nr = normalizer_report(sr)
    return (sr.rank, sr.adapted.subset, nr.normalizer.dim,
            nr.complement.dim, nr.split_part.dim, nr.compact_factor.dim,
            nr.all_ok)


OPEN_PAIRS = [name for name, basis_seed in BASES if basis_seed is None]


@pytest.mark.parametrize("seed", MOVE_SEEDS)
@pytest.mark.parametrize("name", OPEN_PAIRS)
def test_a_move_by_exp_n_keeps_every_verdict(name, seed):
    """Ad(exp X), X ∈ n, fixes p and every standard parabolic, so h and its
    move are the same pair up to an inner automorphism that keeps the
    adapted subset: each verdict must match.  The Levi is chosen to
    contain q ∩ N(h), so N(h)'s complement is read against the moved Levi
    even where several Levis contain q ∩ h (sl2_n)."""
    final = find_open_pair(*problem_and_budget(name), 0)[4]
    assert verdicts(moved(final, seed)) == verdicts(final)
