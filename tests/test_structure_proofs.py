"""structure_report tests one local-structure identity, l_n ⊆ h_std, and
proves the rest from the certificates behind it (StructureReport's
docstring); normalizer_report proves two parts of split_ok by construction.
Every proved identity is rechecked here by the independent oracle of
tests/oracles.py, which shares no code with ``sphlie.linalg``, on the open
catalog pairs on g's own and on mixed bases, on the ladder pairs, and on
each of these with h moved by exp(X), X ∈ n.  Ad(exp X) fixes p, so every
moved pair stays open.  The catalog pairs on their own basis, unmoved, are
rechecked by tests/test_acceptance.py's criterion 2."""

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
         + [(p.name, None) for p in ladder_problems()])


@pytest.mark.parametrize("name, basis_seed", BASES)
def test_every_proved_identity_holds_by_the_oracle(name, basis_seed):
    ladder = {p.name: p for p in ladder_problems()}
    if name in ladder:
        problem, budget = ladder[name], 0
    else:
        entry = get_entry(name)
        problem, budget = entry.problem, entry.search_budget
    if basis_seed is not None:
        problem = remixed(problem, basis_seed)
    final = find_open_pair(problem, budget, 0)[4]
    if final is None:   # a mixed basis can hide the conjugate (BASIS_BOUND)
        pytest.skip("no open pair within the entry's search budget")
    pairs = [moved(final, seed) for seed in MOVE_SEEDS]
    if name in ladder or basis_seed is not None:
        # the unmoved catalog pair on its own basis is the one
        # test_acceptance's criterion 2 rechecks
        pairs.append(final)
    for pair in pairs:
        assert is_spherical(pair)[0]
        sr = structure_report(pair)
        assert all(sr.checks.values())
        assert identity_failures(sr, normalizer_report(sr)) == []
