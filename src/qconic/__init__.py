"""Exact-arithmetic toolkit for arrangements of smooth conics in the
complex projective plane: singularity location and classification, local
Milnor/Tjurina numbers, freeness via the du Plessis-Wall criterion, and
exhaustive verification of the combinatorial constraints on weak
combinatorics."""

from .rationals import QQ, rational, format_rational, parse_rational
from .intervals import Box
from .numberfield import (NumberField, FieldElement, RATIONAL_FIELD,
                          fields_for_polynomial, field_for_root,
                          roots_of_irreducible)
from .multipoly import (HomogeneousForm, AffinePolynomial, monomial_basis,
                        is_reduced)
from .arrangement import (Conic, ConicArrangement, ArrangementPolynomial,
                          validate_arrangement, arrangement_violations,
                          defining_polynomial, pencil_members,
                          arrangement_from_document, arrangement_to_document)
from .singular import (SingularityType, SingularPointRecord,
                       locate_singular_points, analyze_singular_points,
                       classify_point, intersection_multiplicity,
                       is_quasi_homogeneous, weak_combinatorics,
                       conic_pair_intersections, Q_TYPE_INVARIANTS)
from .localalg import (local_affine_at, local_milnor_number,
                       local_tjurina_number, truncated_quotient_dimension)
from .freeness import (SyzygyWitness, FreenessReport, FreenessVerdict,
                       mdr, global_tjurina, tjurina_from_combinatorics,
                       du_plessis_wall, freeness_report)
from .combinatorics import (WeakCombinatorics, check_count,
                            freeness_equation_roots, discriminant_condition,
                            enumerate_admissible, count_admissible,
                            verify_freeness_obstruction, orbifold_euler, alpha_window,
                            langer_summand, langer_lhs_bound, langer_rhs,
                            check_langer_inequality, check_tacnode_inequality,
                            tacnode_bound, verify_tacnode_inequality_derivation,
                            nodes_tacnodes_vectors)
from .report import AnalysisReport, analyze_arrangement
from .errors import (QConicError, ParseError, ValidationError,
                     SingularMember, DuplicateMembers, TooFewMembers,
                     SingularPencilMember, NotHomogeneousError,
                     NotReducedError, NotSingularError, NonIsolatedError,
                     PointNotOnBothError, AlphaOutOfWindowError,
                     EmptyWindowError, KTooSmallError)
from .roots import isolate_all_roots
from .factorint import factor

__version__ = "0.1.0"

