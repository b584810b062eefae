"""The package namespace: the public names it re-exports, each the object
of its home module, listed by `__all__` and `dir`, and bound by a star
import."""

import importlib

import pytest

import operadlab

# home module -> the names the package lends from it
NAMES = {
    "scalar": ["Scalar", "RatFunc", "ScalarError", "SpecializationError"],
    "free3": ["EShape", "Subspace", "ActionMatrix", "SlotMap", "GAMMA3", "TAU12",
              "TAU23", "CYC123", "SIGMA3", "SIGMA3_PLUS", "LAMBDA", "basis_vector",
              "right_action", "left_lambda", "span_closure", "sigma3_closure",
              "gamma_plus_split", "polarize_map", "depolarize_map"],
    "presentation": ["Presentation", "GeneratorDecl", "RelationExpr", "Var", "App",
                     "parse_presentation", "parse_relation", "relation_vector",
                     "builtin", "BUILTIN_NAMES", "ParseError", "PresentationError",
                     "expr_from_vector", "presentation_from_subspace",
                     "polarize_presentation", "depolarize_presentation"],
    "checkers": ["check_cyclic", "check_dihedral", "check_coassoc", "check_counit",
                 "coassoc_family", "hopf_analyze", "HopfResult", "DiagonalCandidate",
                 "check_substitution_iso", "check_implies", "verify_identity",
                 "CheckerError", "InternalInconsistencyError"],
    "rep": ["CharacterVector", "character_of", "decompose", "decompose_subspace",
            "render_decomposition", "verify_table", "CHARACTER_TABLE"],
    "mlab": ["MultiMap", "comp_ij", "circ", "circ_plain", "bracket", "circ_associator",
             "alternating_associator_sum", "master_residual", "master_residual_is_zero",
             "infinitesimal_bialgebra_axioms"],
    "quantize": ["TPoly", "StarProduct", "LLData", "moyal_star", "polarize_star",
                 "star_from_LL", "check_LL", "satisfies", "classical_limit",
                 "basis_monomials"],
}
ALL = [name for names in NAMES.values() for name in names]


def test_all_lists_the_79_re_exported_names():
    assert len(ALL) == len(set(ALL)) == 79
    assert sorted(operadlab.__all__) == sorted(ALL)


@pytest.mark.parametrize("module", NAMES)
def test_each_name_is_its_home_modules_object(module):
    home = importlib.import_module(f"operadlab.{module}")
    for name in NAMES[module]:
        assert getattr(operadlab, name) is getattr(home, name)
    assert getattr(operadlab, module) is home


def test_dir_and_a_star_import_cover_every_name():
    assert set(ALL) | set(NAMES) | {"cli"} <= set(dir(operadlab))
    bound = {}
    exec("from operadlab import *", bound)
    assert set(bound) - {"__builtins__"} == set(ALL)


def test_a_misspelt_name_is_an_attribute_error_that_names_it():
    with pytest.raises(AttributeError, match="'check_cyclc'"):
        operadlab.check_cyclc
    with pytest.raises(ImportError, match="'check_cyclc'"):
        exec("from operadlab import check_cyclc", {})
