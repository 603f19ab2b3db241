"""sphlie: exact-arithmetic structure certificates for real spherical pairs.

Everything is computed exactly over Q: an entry is an ``int`` when integral
and a ``fractions.Fraction`` otherwise, never a float; every verdict the
package emits is backed by an exact linear-algebra identity rather than a
numerical tolerance.

High-level flow: describe a reductive matrix Lie algebra g and a subalgebra
h (directly or through a problem file), ask whether the pair has an open
orbit at the base point (``is_spherical``), optionally search for a
conjugation that opens it (``conjugate_search``), then certify the full
local structure (``structure_report``), the normalizer decomposition
(``normalizer_report``) and the nilpotent-orbit identity, which follows
from the root table's grading (``orbit_identity_check``; ``derivation_pair``
certifies a given one) and is inverted exactly by ``solve_conjugator``.
"""

from .errors import (
    CertificationError,
    DimensionMismatch,
    NotCartanInvolution,
    NotClosed,
    NotNilpotent,
    NotReductive,
    NotSpherical,
    ProblemFormatError,
    SphlieError,
    SpectrumError,
    UniquenessViolation,
    UnreachableTarget,
)
from .linalg import (
    Subspace,
    canonical_basis,
    complement_in,
    membership,
    subspace_intersect,
    subspace_sum,
)
from .liealg import (
    CartanData,
    LieAlgebra,
    cartan_data,
    cartan_decompose,
    maximal_abelian,
    simple_ideal_split,
)
from .parabolic import (
    ParabolicData,
    characteristic_element,
    containment_check,
    standard_parabolic,
)
from .spherical import (
    GroupWord,
    SphericalPair,
    StructureReport,
    adapted_parabolic,
    compact_transitivity_check,
    conjugate_search,
    group_element_candidates,
    is_spherical,
    spherical_pair,
    structure_report,
)
from .normalizer import NormalizerReport, normalizer_in, normalizer_report
from .orbits import (
    DerivationPair,
    derivation_pair,
    exp_ad_apply,
    orbit_identity_check,
    solve_conjugator,
)
from .problem import (
    Problem,
    build_pair,
    parse_problem,
    parse_problem_text,
    problem_to_json,
)
from .catalog import catalog_entries, get_entry, run_all, run_entry

__version__ = "0.1.0"
