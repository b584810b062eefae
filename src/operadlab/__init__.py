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

The public names below, and the submodules, resolve on first use
(PEP 562): importing the package loads none of its modules, and a name
loads its home module and the modules that one imports.  So a command
line run loads only what its command needs:

* `mlab`: scalar, mlab;
* `quantize`: scalar, free3, presentation, quantize;
* `polarize`: scalar, free3, presentation;
* `check`, `table`, `iso`: those three and checkers;
* `decompose`: those four and rep.
"""

import importlib

# home module -> the public names it lends the package
_EXPORTS = {
    "scalar": ("Scalar", "RatFunc", "ScalarError", "SpecializationError"),
    "free3": ("EShape", "Subspace", "ActionMatrix", "SlotMap",
              "GAMMA3", "TAU12", "TAU23", "CYC123", "SIGMA3", "SIGMA3_PLUS",
              "LAMBDA", "basis_vector", "right_action", "left_lambda",
              "span_closure", "sigma3_closure", "gamma_plus_split",
              "polarize_map", "depolarize_map"),
    "presentation": ("Presentation", "GeneratorDecl", "RelationExpr", "Var", "App",
                     "parse_presentation", "parse_relation",
                     "relation_vector", "builtin", "BUILTIN_NAMES", "ParseError",
                     "PresentationError", "expr_from_vector",
                     "presentation_from_subspace", "polarize_presentation",
                     "depolarize_presentation"),
    "checkers": ("check_cyclic", "check_dihedral", "check_coassoc", "check_counit",
                 "coassoc_family", "hopf_analyze", "HopfResult", "DiagonalCandidate",
                 "check_substitution_iso", "check_implies", "verify_identity",
                 "CheckerError", "InternalInconsistencyError"),
    "rep": ("CharacterVector", "character_of", "decompose", "decompose_subspace",
            "render_decomposition", "verify_table", "CHARACTER_TABLE"),
    "mlab": ("MultiMap", "comp_ij", "circ", "circ_plain", "bracket",
             "circ_associator", "alternating_associator_sum",
             "master_residual", "master_residual_is_zero",
             "infinitesimal_bialgebra_axioms"),
    "quantize": ("TPoly", "StarProduct", "LLData", "moyal_star", "polarize_star",
                 "star_from_LL", "check_LL", "satisfies", "classical_limit",
                 "basis_monomials"),
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}
_MODULES = (*_EXPORTS, "cli")

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _MODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
