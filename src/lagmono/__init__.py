"""Exact computation of homological monodromy groups of monotone Lagrangian tori.

Toric fibres are handled exactly through lattice combinatorics; general tori
are constrained through forced critical points of their potentials, Clifford
algebra unit equations over cyclotomic integers, and finite-subgroup
filtering.  All arithmetic is exact: integers, rationals, and cyclotomic
numbers, never floats.
"""

from .classify import (
    ConjectureVerdict,
    GroupCatalog,
    catalog_n2,
    classify_n2,
    conjecture_filter,
    embed_symmetric_product,
    gl_order_feasible,
    identify_class_n2,
    ingest_catalog,
)
from .cyclotomic import CyclotomicNumber, cyclotomic_polynomial, euler_phi
from .floer import (
    BinaryForm,
    CliffordData,
    CliffordElement,
    ContinuationResult,
    HessianCheckReport,
    Rk1Report,
    clifford_constants,
    clifford_mul,
    continuation_solvable,
    hessian_theorem_check,
    reduce_binary_form,
    rk1_classify,
)
from .groups import MatrixGroup, PermutationGroup, cycle_notation
from .intlat import (
    IntMat,
    LatticeBasis,
    hermite_normal_form,
    kernel_lattice,
    matrix_order,
)
from .laurent import (
    LaurentPolynomial,
    evaluate,
    gradient_hessian,
    invariance_check,
    is_critical,
    parse_laurent,
    torsion_critical_points,
)
from .monodromy import (
    hamiltonian_monodromy,
    induced_matrix_group,
    partition_bound_check,
    symplectic_monodromy,
)
from .toric import (
    DelzantPolytope,
    Mode,
    NormalPartition,
    ToricFiberData,
    ValidationReport,
    coefficient_partition,
    monotone_normalize,
    parse_polytope,
    toric_fiber_data,
    validate_delzant,
)
from .torussym import (
    FixedPointSet,
    TorsionPoint,
    admissible_group,
    forced_critical_points,
    monomial_fixed_points,
    parse_group,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
