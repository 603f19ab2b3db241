"""A first spherical pair: sl(2,R) acting on the hyperbolic plane.

The stabilizer of a point is the rotation subalgebra so(2).  The pair is
spherical — the minimal parabolic p and h together fill the algebra — and
the structure report certifies every conclusion as an exact identity.
Run:  python3 demos/02_first_spherical_pair.py
"""

from fractions import Fraction

from sphlie import (
    LieAlgebra,
    canonical_basis,
    cartan_data,
    is_spherical,
    spherical_pair,
    structure_report,
)
from sphlie.builders import sl_basis

g = LieAlgebra(sl_basis(2), name="sl2")
print(f"algebra: {g.name}, dim {g.dim} (basis H, E, F)")

cd = cartan_data(g)
print(f"restricted roots: {sorted(cd.roots)}  positive: {sorted(cd.positive_roots)}")
print(f"minimal parabolic p = m + a + n has dim {cd.p.dim}")

# so(2) = rotations = span(E - F), written in (H, E, F) coordinates.
h = canonical_basis([(Fraction(0), Fraction(1), Fraction(-1))], 3)
pair = spherical_pair(cd, h, label="sl2 / so2")

ok, defect = is_spherical(pair)
print(f"\np + h = g?  {ok} (defect {defect})")

report = structure_report(pair)
print(f"adapted parabolic subset: {report.adapted_subset} "
      f"(the empty set: q is the minimal parabolic itself)")
# One local-structure identity is tested, the noncompact ideals l_n of
# the Levi inside h; StructureReport proves the others from the
# certificates behind it.
ln = report.levi_structure.noncompact_ideals
print(f"tested identity: noncompact Levi ideals (dim {ln.dim}) inside h: "
      f"{ln.is_contained_in(report.standard_form_h)}")
print(f"rank of the open orbit: {report.rank}")
print(f"torus witnessing the rank: {[tuple(map(str, v)) for v in report.rank_torus.basis]}")
