"""operadlab: an exact-arithmetic workbench for quadratic operads
generated by one binary operation.

The package decides, mechanically and over the exact coefficient tower
Q(q)(sqrt 2, sqrt q):

* polarization equivalences between one-operation presentations and
  their commutative/anticommutative rewrites,
* cyclicity (invariance of relations under the extended symmetric-group
  action) and dihedrality (invariance under the order-reversal
  involution),
* existence and uniqueness of coassociative counital diagonals,
* presentation isomorphisms given by generator substitutions,
* irreducible decompositions of the even/odd parts of the arity-3
  free-operad component,
* the star-product / bracket correspondence on a truncated polynomial
  carrier, and
* signed insertion compositions of multilinear maps.
"""

from .scalar import Scalar, RatFunc, ScalarError, SpecializationError
from .free3 import (EShape, Subspace, ActionMatrix, SlotMap,
                    GAMMA3, TAU12, TAU23, CYC123, SIGMA3, SIGMA3_PLUS,
                    LAMBDA, basis_vector, right_action, left_lambda,
                    span_closure, sigma3_closure, gamma_plus_split,
                    polarize_map, depolarize_map)
from .presentation import (Presentation, GeneratorDecl, RelationExpr, Var, App,
                           var, parse_presentation, parse_relation,
                           relation_vector, builtin, BUILTIN_NAMES, ParseError,
                           PresentationError, expr_from_vector,
                           presentation_from_subspace, polarize_presentation,
                           depolarize_presentation)
from .checkers import (check_cyclic, check_dihedral, check_coassoc, check_counit,
                       coassoc_family, hopf_analyze, HopfResult, DiagonalCandidate,
                       check_substitution_iso, check_implies, verify_identity,
                       verdict_report, CheckerError, InternalInconsistencyError)
from .rep import (CharacterVector, character_of, decompose, decompose_subspace,
                  render_decomposition, verify_table, CHARACTER_TABLE)
from .mlab import (MultiMap, comp_ij, circ, circ_plain, bracket,
                   circ_associator, alternating_associator_sum,
                   master_residual, master_residual_is_zero,
                   infinitesimal_bialgebra_axioms)
from .quantize import (TPoly, StarProduct, LLData, moyal_star, polarize_star,
                       star_from_LL, check_LL, classical_limit, poisson_check,
                       basis_monomials)

__version__ = "0.1.0"
