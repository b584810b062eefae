import itertools
import json
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from operadlab import checkers, presentation
from operadlab.checkers import HopfResult, slotmap_from_exprs
from operadlab.cli import (main, _named_map, NAMED_MAPS, EXIT_OK, EXIT_PARSE,
                           EXIT_INCONSISTENT, EXIT_PRINT_LIMIT)
from operadlab.free3 import Subspace
from operadlab.presentation import (BUILTIN_NAMES, builtin, depolarize_presentation,
                                    parse_expression, parse_map)
from operadlab.scalar import Scalar

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


@pytest.fixture(scope="session")
def schema():
    text = resources.files("operadlab").joinpath("data/report_schema.json").read_text()
    return json.loads(text)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, schema, *argv):
    code, out, err = run(capsys, *argv)
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    return code, doc


# -- check -------------------------------------------------------------------

def test_check_g5(capsys):
    code, out, _ = run(capsys, "check", "G5", "--cyclic", "--dihedral")
    assert code == EXIT_OK
    assert "cyclic:   no" in out and "dihedral: yes" in out


def test_check_llq_hopf_json(capsys, schema):
    code, doc = run_json(capsys, schema, "check", "LLq", "--hopf", "--json")
    assert code == EXIT_OK
    assert doc["hopf"] == {"verdict": "unique", "witness": "-1/4*q + 1/4"}


def test_check_lie_hopf(capsys):
    code, out, _ = run(capsys, "check", "Lie", "--hopf")
    assert code == EXIT_OK
    assert "hopf:     none" in out


def test_check_literal_text(capsys):
    code, out, _ = run(capsys, "check",
                       "gen m: none; rel m(m(x,y),z) - m(x,m(y,z)) = 0;")
    assert code == EXIT_OK
    assert "cyclic:   yes" in out


def test_check_file(tmp_path, capsys):
    f = tmp_path / "pres.op"
    f.write_text("operad FromFile { gen b: anti; "
                 "rel b(x,b(y,z)) + b(y,b(z,x)) + b(z,b(x,y)) = 0; }")
    code, out, _ = run(capsys, "check", str(f))
    assert code == EXIT_OK and "FromFile" in out


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_presentation_file(tmp_path, capsys, kind):
    if kind == "directory":
        path = tmp_path
    else:
        path = tmp_path / "pres.op"
        path.write_bytes(b"gen m: none; \xff")
    code, out, err = run(capsys, "check", str(path))
    assert code == EXIT_PARSE and out == ""
    assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1


def test_check_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "check", "rel m(m(x,y),z")
    assert code == EXIT_PARSE
    assert "unbalanced parentheses" in err


def test_check_specialization_pole(capsys):
    code, _, err = run(capsys, "check", "LLq_depolarized", "--q", "-3")
    assert code == EXIT_PARSE and "pole" in err


MISTYPED_BUILTIN = [("check", "LLQ"), ("polarize", "LLQ"),
                    ("iso", "Ass", "LLQ", "--map", "star"), ("decompose", "LLQ")]


@pytest.mark.parametrize("argv", [
    ("iso", "Ass", "Ass", "--map", "m=k(x,y)"),
    ("iso", "Ass", "Ass", "--map", "m=m(x,y); k=m(y,x)"),
    ("iso", "Ass", "Ass", "--map", "m=m(x,y); m=m(y,x)"),
    ("check", "Ass", "--q", "1/0"),
    ("check", "LLq", "--q", "abc"),
    ("polarize", "operad X { gen m: none; gen m: comm; }"),
    ("quantize", "--degree", "-1"),
    ("quantize", "--order", "1"),
    ("quantize", "--order", "1", "--mutate"),
    ("mlab", "--trials", "-2"),
    ("check", "gen m: none; rel 2\u00b2*m(m(x,y),z) = 0;"),
    *MISTYPED_BUILTIN,
], ids=["unknown-map-generator", "map-key-not-a-generator",
        "map-key-given-twice", "zero-denominator-q", "non-numeric-q",
        "duplicate-generator-name", "negative-carrier-degree",
        "axiom-unchecked-at-order-1", "mutated-axiom-unchecked-at-order-1",
        "negative-trial-count", "superscript-digit", "check-mistyped-builtin",
        "polarize-mistyped-builtin", "iso-mistyped-builtin",
        "decompose-mistyped-builtin"])
def test_bad_input_is_a_one_line_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", MISTYPED_BUILTIN, ids=lambda argv: argv[0])
def test_a_mistyped_builtin_is_named_as_one(capsys, argv):
    # a bare identifier that is neither a builtin nor a file is not parsed as text
    assert run(capsys, *argv)[2] == "error: unknown builtin presentation 'LLQ'\n"


def test_dihedral_routes_that_disagree_exit_inconsistent(capsys, monkeypatch):
    monkeypatch.setattr(Subspace, "intersect", lambda self, other: Subspace(self.shape))
    code, out, err = run(capsys, "check", "Ass", "--dihedral")
    assert code == EXIT_INCONSISTENT == 3 and out == ""
    assert err.startswith("internal inconsistency: ") and err.count("\n") == 1


def test_a_coefficient_too_long_to_print_is_a_one_line_error(capsys):
    text = "operad A { gen m: none; rel (2^100000)*m(m(x,y),z) - m(x,m(y,z)) = 0; }"
    code, out, err = run(capsys, "check", text)
    # its own exit code: a script can tell it from a parse error
    assert code == EXIT_PRINT_LIMIT == 4 and out == ""
    limit = sys.get_int_max_str_digits()
    assert err == f"error: coefficient too large to print (over {limit} decimal digits)\n"
    # the verdicts that print no coefficient still answer
    code, out, _ = run(capsys, "check", text, "--cyclic", "--dihedral")
    assert code == EXIT_OK and "cyclic:   no" in out and "dihedral: no" in out
    assert run(capsys, "check", "operad A {")[0] == EXIT_PARSE


def test_check_keeps_decided_verdicts_when_hopf_is_unsupported(capsys, schema):
    code, doc = run_json(capsys, schema, "check", "CyclicNotDihedral", "--json")
    assert code == EXIT_OK
    assert (doc["cyclic"], doc["dihedral"]) == (True, False)
    assert doc["hopf"] == {"verdict": "unsupported", "witness": None}
    code, out, err = run(capsys, "check", "CyclicNotDihedral")
    assert code == EXIT_OK and err == ""
    assert "hopf:     unsupported" in out


# CyclicNotDihedral with its comm generator c renamed m_s, the name that
# polarizing m would give
M_AND_M_S = """operad X { gen m: none; gen m_s: comm;
    rel m(x,m_s(y,z)) + m(y,m_s(z,x)) + m(z,m_s(x,y)) = 0;
    rel m(m_s(x,y),z) + m_s(m(z,x),y) + m_s(x,m(z,y)) = 0; }"""


def test_verdicts_do_not_depend_on_generator_names(capsys, schema):
    code, out, _ = run(capsys, "check", M_AND_M_S, "--cyclic", "--dihedral")
    assert code == EXIT_OK
    assert "cyclic:   yes" in out and "dihedral: no" in out
    code, doc = run_json(capsys, schema, "decompose", M_AND_M_S, "--json")
    _, ref = run_json(capsys, schema, "decompose", "CyclicNotDihedral", "--json")
    assert code == EXIT_OK and doc["presentation"] == "X"
    del doc["presentation"], ref["presentation"]
    assert doc == ref
    # polarizing m next to a generator named m_s picks free pair names
    from operadlab import parse_presentation, check_cyclic, check_dihedral
    code, out, _ = run(capsys, "polarize", M_AND_M_S)
    assert code == EXIT_OK
    pol = parse_presentation(out)
    assert len({g.name for g in pol.generators}) == 3
    _, ref_out, _ = run(capsys, "polarize", "CyclicNotDihedral")
    ref = parse_presentation(ref_out)
    assert ((pol.R.dim, check_cyclic(pol), check_dihedral(pol))
            == (ref.R.dim, check_cyclic(ref), check_dihedral(ref)))


# -- table --------------------------------------------------------------------

EXPECTED_TABLE = {
    "Ass": ("yes", True, True, "unique"),
    "Poiss": ("yes", True, True, "unique"),
    "LLq": ("yes", True, True, "unique"),
    "LLinf": ("yes", True, True, "none"),
    "Vinberg": ("yes", False, False, "none"),
    "PreLie": ("yes", False, False, "none"),
    "G4": ("no", True, True, "none"),
    "G5": ("no", False, True, "none"),
    "G6": ("yes", True, True, "none"),
}


def test_table_matches_expectations(capsys, schema):
    code, doc = run_json(capsys, schema, "table", "--json")
    assert code == EXIT_OK
    assert doc["koszul_note"] == "cited, not computed"
    got = {r["operad"]: (r["koszul"]["value"], r["cyclic"], r["dihedral"],
                         r["hopf"]["verdict"]) for r in doc["rows"]}
    assert got == EXPECTED_TABLE
    by_name = {r["operad"]: r for r in doc["rows"]}
    assert by_name["LLq"]["hopf"]["witness"] == "-1/4*q + 1/4"
    assert by_name["Ass"]["hopf"]["witness"] == "0"


def test_table_text_marks_cited_column(capsys):
    code, out, _ = run(capsys, "table")
    assert code == EXIT_OK
    assert "cited from the literature, not computed" in out


def test_table_shows_undecided_as_undecided(capsys, monkeypatch):
    monkeypatch.setattr(checkers, "hopf_analyze", lambda p: HopfResult("undecided"))
    code, out, _ = run(capsys, "table")
    rows = out.splitlines()[2:-1]
    assert code == EXIT_OK and len(rows) == len(EXPECTED_TABLE)
    assert all(r.endswith(" undecided") for r in rows)


def test_table_deterministic(capsys):
    _, out1, _ = run(capsys, "table", "--json")
    _, out2, _ = run(capsys, "table", "--json")
    assert out1 == out2


# -- decompose / polarize --------------------------------------------------------

def test_decompose_free_type3(capsys, schema):
    code, doc = run_json(capsys, schema, "decompose", "free_type3", "--json")
    assert code == EXIT_OK
    assert doc["gamma_plus"] == {"dim": 6, "decomposition": "1·id ⊕ 1·sgn ⊕ 2·V22"}
    assert doc["gamma_minus"] == {"dim": 6, "decomposition": "1·V31 ⊕ 1·V211"}


def test_decompose_27_dim(capsys, schema):
    code, doc = run_json(capsys, schema, "decompose", "CyclicNotDihedral", "--json")
    assert doc["gamma_plus"]["dim"] == 15
    assert doc["gamma_plus"]["decomposition"] == "3·id ⊕ 1·sgn ⊕ 4·V22 ⊕ 1·V31"
    assert doc["gamma_minus"]["decomposition"] == "2·V31 ⊕ 2·V211"
    assert doc["relations"] == {"dim": 4, "decomposition": "1·id ⊕ 1·V31"}


def test_decompose_specializes_q(capsys, schema):
    code, doc = run_json(capsys, schema, "decompose", "LLq", "--q", "0", "--json")
    _, ref = run_json(capsys, schema, "decompose", "LL0", "--json")
    assert code == EXIT_OK and doc.pop("presentation") == "LLq[q=0]"
    ref.pop("presentation")
    assert doc == ref
    code, out, err = run(capsys, "decompose", "LLq_depolarized", "--q", "-3")
    assert code == EXIT_PARSE and out == "" and "pole" in err


def test_polarize_ass_roundtrips(capsys, schema):
    code, doc = run_json(capsys, schema, "polarize", "Ass", "--json")
    assert code == EXIT_OK
    from operadlab import parse_presentation, builtin, polarize_map
    p = parse_presentation(doc["polarized"])
    target = polarize_map(builtin("Ass").shape,
                          {"m": ("m_s", "m_a")}).apply_subspace(builtin("Ass").R)
    assert p.R == target


# -- iso ---------------------------------------------------------------------------

def test_iso_star(capsys, schema):
    code, doc = run_json(capsys, schema, "iso", "LLq", "Ass", "--map", "star",
                         "--json")
    assert code == EXIT_OK and doc["isomorphic"] is True


@pytest.mark.parametrize("p1, p2, q, verdict", [
    ("LLq", "Ass", None, "isomorphism"), ("Ass", "LLq", None, "isomorphism"),
    ("LLq", "Ass", "4", "isomorphism"), ("Ass", "LLq", "4", "isomorphism"),
    ("Ass", "G2", None, "NOT an isomorphism"), ("G2", "Ass", None, "NOT an isomorphism"),
])
def test_iso_star_gives_one_verdict_in_either_order(capsys, p1, p2, q, verdict):
    # star is tried from p2's side and then from p1's
    code, out, err = run(capsys, "iso", p1, p2, "--map", "star", *(("--q", q) if q else ()))
    assert (code, err) == (EXIT_OK, "") and out.endswith(f" via 'star': {verdict}\n")


def test_iso_opposite(capsys):
    code, out, _ = run(capsys, "iso", "PreLie", "Vinberg", "--map", "opposite")
    assert code == EXIT_OK and "isomorphism" in out


def test_iso_explicit_map(capsys):
    code, out, _ = run(capsys, "iso", "Ass", "Ass", "--map", "m = m(x,y)")
    assert code == EXIT_OK and " isomorphism" in out


@pytest.mark.parametrize("argv, iso", [
    # b -> -b is not an isomorphism of G2; depolarized it became the identity
    (("G2_polarized", "G2_polarized", "--map", "signflip"), False),
    (("LLq", "LLq", "--map", "signflip"), True),
    # the polarized generators keep their names
    (("LLq", "LLq", "--map", "c=c(x,y); b=b(x,y)"), True),
], ids=["G2-signflip", "LLq-signflip", "LLq-explicit"])
def test_iso_named_maps_on_polarized_inputs(capsys, argv, iso):
    code, out, _ = run(capsys, "iso", *argv)
    assert code == EXIT_OK
    assert out.rstrip().endswith(": isomorphism" if iso else "NOT an isomorphism")


@pytest.mark.parametrize("p2, verdict", [("Ass", "isomorphism"),
                                         ("G3", "NOT an isomorphism")])
def test_iso_identity_map(capsys, p2, verdict):
    code, out, err = run(capsys, "iso", "Ass", p2, "--map", "identity")
    assert (code, out, err) == (EXIT_OK,
                                f"Ass -> {p2} via 'identity': {verdict}\n", "")


def test_iso_map_pieces(capsys):
    # '#' comments out the rest of the line, a ';' in it included; empty
    # statements, a trailing ';' among them, are skipped
    for text in ("m=m(y,x);", ";;m=m(y,x);;", "m=m(y,x) # was: k=m(x,y); retired\n",
                 "# the opposite product\nm = m(y,  # swapped\n x);\n;\n"):
        code, out, err = run(capsys, "iso", "Ass", "Ass", "--map", text)
        assert (code, out, err) == (EXIT_OK, f"Ass -> Ass via {text!r}: isomorphism\n", "")
    # positions are lines and columns of the --map text; an open application
    # is unbalanced at the ';' that ends it, as in a presentation
    for text, msg in [("m(x,y)", "expected gen=expression, got 'm(x,y)' at 1:1"),
                      ("m=m(x,y); k", "expected gen=expression, got 'k' at 1:11"),
                      ("m=m(x,y) + m(y,x;", "unbalanced parentheses at 1:17"),
                      ("m=m(x,y\n+ m(y,x)", "expected ')', found '+' at 2:1"),
                      ("m x=m(y,x)", "expected gen=expression, got 'm x=m(y,x)' at 1:1"),
                      ("m=m(y,x) m=m(x,y)", "unexpected 'm' at 1:10"),
                      ("m=m(y,x); m=m(x,y)", "generator 'm' is mapped twice")]:
        code, out, err = run(capsys, "iso", "Ass", "Ass", "--map", text)
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"error: {msg}\n"


def test_named_map_texts_parse_as_pieces(monkeypatch):
    # every text a named map builds means what it meant when each
    # ';'-separated piece was parsed on its own
    texts = []

    def recording(text):
        texts.append(text)
        return parse_map(text)

    monkeypatch.setattr(presentation, "parse_map", recording)
    # a named map reads only the generators, so one form of each list is enough
    forms = {p.generators: p for n in BUILTIN_NAMES
             for p in (builtin(n), depolarize_presentation(builtin(n)))}
    for (p, p2), name in itertools.product(
            itertools.product(forms.values(), repeat=2), NAMED_MAPS):
        _named_map(name, p, p2)

    def terms(e):
        return [(c, t.render()) for c, t in e.terms]

    assert {t.count(";") for t in texts} >= {0, 1}
    for text in set(texts):
        pieces = [piece.split("=", 1) for piece in text.split(";")]
        assert {g: terms(e) for g, e in parse_map(text).items()} == {
            g.strip(): terms(parse_expression(e)) for g, e in pieces}


def test_decompose_relations_not_invariant(capsys, schema):
    code, out, _ = run(capsys, "decompose", "G2")
    assert code == EXIT_OK
    assert out.splitlines()[-1] == ("  relations  ( 3): not invariant under the "
                                    "extended action; no character")
    code, doc = run_json(capsys, schema, "decompose", "G2", "--json")
    assert code == EXIT_OK
    assert doc["relations"] == {"dim": 3, "decomposition": None}


def test_iso_degenerate_map_errors(capsys):
    for p1, p2 in (("LLq", "Ass"), ("Ass", "LLq")):
        code, _, err = run(capsys, "iso", p1, p2, "--map", "star", "--q", "0")
        assert (code, err) == (EXIT_PARSE, "error: generator map is not invertible\n")


@pytest.mark.parametrize("p1, p2", [("Ass", "Com"), ("Com", "Ass")])
def test_iso_star_names_the_faults_of_both_tries(capsys, p1, p2):
    # from Com's side the star map is not invertible, from Ass's side it is
    # not equivariant; the answer does not depend on the order
    code, out, err = run(capsys, "iso", p1, p2, "--map", "star")
    assert (code, out) == (EXIT_PARSE, "")
    assert err == ("error: generator map is not equivariant for the "
                   "transposition action; generator map is not invertible\n")


STAR_TEXT = "m=((1+v)/2)*m(x,y) + ((1-v)/2)*m(y,x)"


@pytest.mark.parametrize("argv, code, text", [
    # q = 0 makes the written map zero
    (("Ass", "Ass", "--q", "0", "--map", "m=q*m(x,y)"), EXIT_PARSE, "not invertible"),
    (("Ass", "Ass", "--q", "1", "--map", "m=q*m(x,y)"), EXIT_OK, ": isomorphism\n"),
    # the star formula written out is an isomorphism at v = 2 ...
    (("Ass", "LLq_depolarized", "--q", "4", "--map", STAR_TEXT), EXIT_OK,
     ": isomorphism\n"),
    # ... and needs a rational square root of q, as the named map does
    (("Ass", "LLq_depolarized", "--q", "2", "--map", STAR_TEXT), EXIT_PARSE,
     "sqrt(2) is irrational"),
    (("LLq", "Ass", "--q", "2", "--map", "star"), EXIT_PARSE, "sqrt(2) is irrational"),
    (("LLq", "Ass", "--q", "4", "--map", "star"), EXIT_OK, ": isomorphism\n"),
], ids=["written-q0", "written-q1", "written-star-q4", "written-star-q2",
        "named-star-q2", "named-star-q4"])
def test_iso_q_specializes_the_map(capsys, argv, code, text):
    got, out, err = run(capsys, "iso", *argv)
    assert got == code and text in (out if code == EXIT_OK else err)


HALF = Fraction(1, 2)
V = Scalar.v()


# slot images of each named map, from the source to the target presentation
# as iso first compares them (star runs from the second presentation's side
# first, and star and opposite compare depolarized presentations)
@pytest.mark.parametrize("name, src, dst, q, images", [
    ("star", "Ass", "LLq", None, {0: [(HALF + HALF * V, 0), (HALF - HALF * V, 1)],
                                  1: [(HALF + HALF * V, 1), (HALF - HALF * V, 0)]}),
    ("star", "Ass", "LLq", 4, {0: [(Fraction(3, 2), 0), (-HALF, 1)],
                               1: [(Fraction(3, 2), 1), (-HALF, 0)]}),
    ("opposite", "PreLie", "Vinberg", None, {0: [(1, 1)], 1: [(1, 0)]}),
    ("identity", "Ass", "G3", None, {0: [(1, 0)], 1: [(1, 1)]}),
    ("signflip", "G2_polarized", "G2_polarized", None, {0: [(1, 0)], 1: [(-1, 1)]}),
    ("signflip", "LLq", "LLq", None, {0: [(1, 0)], 1: [(-1, 1)]}),
], ids=["star", "star-q4", "opposite", "identity", "signflip-G2", "signflip-LLq"])
def test_named_map_slot_images(name, src, dst, q, images):
    p, p2 = builtin(src), builtin(dst)
    if q is not None:
        p, p2 = p.specialize(q), p2.specialize(q)
    if name in ("star", "opposite"):
        p, p2 = depolarize_presentation(p), depolarize_presentation(p2)
    mapping = _named_map(name, p, p2)
    if q is not None:
        mapping = {g: e.specialize(q) for g, e in mapping.items()}
    sm = slotmap_from_exprs(p, p2, mapping)
    assert {s: list(img) for s, img in sm.images.items()} == images


# -- quantize / mlab -----------------------------------------------------------------

def test_quantize_report(capsys, schema):
    code, doc = run_json(capsys, schema, "quantize", "--order", "3", "--degree", "3", "--mutate", "--json")
    assert code == EXIT_OK
    assert doc["commutative_mod_t"] and doc["associative"]
    assert doc["ll_axioms"] is True and doc["first_failure"] is None
    assert doc["roundtrip"] is True
    assert doc["mutated_ll_axioms"] is False
    assert "fails on" in doc["mutated_first_failure"]


def test_quantize_mutation_is_caught_at_degree_0(capsys):
    code, out, _ = run(capsys, "quantize", "--degree", "0", "--mutate")
    assert code == EXIT_OK
    assert "mutated bracket: fails as expected" in out


def test_mlab_report(capsys, schema):
    code, doc = run_json(capsys, schema, "mlab", "--seed", "11", "--trials", "6",
                         "--json")
    assert code == EXIT_OK
    assert doc["pre_lie_failures"] == 0
    assert doc["vinberg_failures"] == 0
    assert doc["master_equivalence_failures"] == 0
    assert doc["g6_alternation_nonzero"] > 0


def test_mlab_seed_reproducible(capsys):
    _, out1, _ = run(capsys, "mlab", "--seed", "3", "--trials", "4", "--json")
    _, out2, _ = run(capsys, "mlab", "--seed", "3", "--trials", "4", "--json")
    assert out1 == out2


# -- outputs fixed at a reference version ------------------------------------------

def test_outputs_match_the_golden_file(capsys):
    """`check NAME --json` for every builtin name, `table --json`, four
    `quantize` runs and two `mlab` runs, exit code and both streams byte
    for byte."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    argvs = ([("check", n, "--json") for n in BUILTIN_NAMES] + [("table", "--json")]
             + [("quantize", "--json"), ("quantize", "--mutate", "--json"),
                ("quantize", "--order", "3", "--degree", "3", "--mutate", "--json"),
                ("quantize", "--mutate"),
                ("mlab", "--seed", "1", "--trials", "20", "--json"),
                ("mlab", "--seed", "2", "--trials", "5")])
    assert sorted(golden) == sorted(" ".join(a) for a in argvs)
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        assert {"exit": code, "stdout": out, "stderr": err} == golden[" ".join(argv)]
