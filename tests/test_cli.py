import json
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from operadlab.cli import main, EXIT_OK, EXIT_PARSE, EXIT_INCONSISTENT
from operadlab.presentation import BUILTIN_NAMES

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


@pytest.mark.parametrize("argv", [
    ("iso", "Ass", "Ass", "--map", "m=k(x,y)"),
    ("iso", "Ass", "Ass", "--map", "m=m(x,y); k=m(y,x)"),
    ("iso", "Ass", "Ass", "--map", "m=m(x,y); m=m(y,x)"),
    ("check", "Ass", "--q", "1/0"),
    ("check", "LLq", "--q", "abc"),
    ("polarize", "operad X { gen m: none; gen m_s: comm; }"),
    ("quantize", "--degree", "-1"),
    ("mlab", "--trials", "-2"),
    ("check", "gen m: none; rel 2\u00b2*m(m(x,y),z) = 0;"),
], ids=["unknown-map-generator", "map-key-not-a-generator",
        "map-key-given-twice", "zero-denominator-q", "non-numeric-q",
        "polarized-name-clash", "negative-carrier-degree", "negative-trial-count",
        "superscript-digit"])
def test_bad_input_is_a_one_line_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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
    import operadlab.cli as cli
    real = cli.verdict_report

    def undecided(p):
        return dict(real(p), hopf={"verdict": "undecided", "witness": None})

    monkeypatch.setattr(cli, "verdict_report", undecided)
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
    code, doc = run_json(capsys, schema, "decompose", "--builtin", "free_type3",
                         "--json")
    assert code == EXIT_OK
    assert doc["gamma_plus"] == {"dim": 6, "decomposition": "1·id ⊕ 1·sgn ⊕ 2·V22"}
    assert doc["gamma_minus"] == {"dim": 6, "decomposition": "1·V31 ⊕ 1·V211"}


def test_decompose_27_dim(capsys, schema):
    code, doc = run_json(capsys, schema, "decompose", "CyclicNotDihedral", "--json")
    assert doc["gamma_plus"]["dim"] == 15
    assert doc["gamma_plus"]["decomposition"] == "3·id ⊕ 1·sgn ⊕ 4·V22 ⊕ 1·V31"
    assert doc["gamma_minus"]["decomposition"] == "2·V31 ⊕ 2·V211"
    assert doc["relations"] == {"dim": 4, "decomposition": "1·id ⊕ 1·V31"}


def test_polarize_ass_roundtrips(capsys, schema):
    code, doc = run_json(capsys, schema, "polarize", "Ass", "--json")
    assert code == EXIT_OK
    from operadlab import parse_presentation, builtin, polarize_map
    p = parse_presentation(doc["polarized"])
    target = polarize_map(builtin("Ass").shape, p.shape,
                          {"m": ("m_s", "m_a")}).apply_subspace(builtin("Ass").R)
    assert p.R == target


# -- iso ---------------------------------------------------------------------------

def test_iso_star(capsys, schema):
    code, doc = run_json(capsys, schema, "iso", "LLq", "Ass", "--map", "star",
                         "--json")
    assert code == EXIT_OK and doc["isomorphic"] is True


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
    # a trailing ';' leaves an empty piece, which is skipped
    code, out, _ = run(capsys, "iso", "Ass", "Ass", "--map", "m=m(y,x);")
    assert code == EXIT_OK and out == "Ass -> Ass via 'm=m(y,x);': isomorphism\n"
    # positions are columns of the --map text
    for text, msg in [("m(x,y)", "expected gen=expression, got 'm(x,y)' at 1:1"),
                      ("m=m(x,y); k", "expected gen=expression, got 'k' at 1:11"),
                      ("m=m(x,y) + m(y,x;", "unbalanced parentheses at 1:16"),
                      ("m=m(x,y\n+ m(y,x)", "expected ')', found '+' at 2:1")]:
        code, out, err = run(capsys, "iso", "Ass", "Ass", "--map", text)
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"error: {msg}\n"


def test_decompose_relations_not_invariant(capsys, schema):
    code, out, _ = run(capsys, "decompose", "G2")
    assert code == EXIT_OK
    assert out.splitlines()[-1] == ("  relations  ( 3): not invariant under the "
                                    "extended action; no character")
    code, doc = run_json(capsys, schema, "decompose", "G2", "--json")
    assert code == EXIT_OK
    assert doc["relations"] == {"dim": 3, "decomposition": None}


def test_iso_degenerate_map_errors(capsys):
    code, _, err = run(capsys, "iso", "LLq", "Ass", "--map", "star", "--q", "0")
    assert code == EXIT_PARSE and "not invertible" in err


# -- quantize / mlab -----------------------------------------------------------------

def test_quantize_report(capsys, schema):
    code, doc = run_json(capsys, schema, "quantize", "--example", "moyal",
                         "--order", "3", "--degree", "3", "--mutate", "--json")
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


def test_quantize_unknown_example(capsys):
    code, _, err = run(capsys, "quantize", "--example", "weyl")
    assert code == EXIT_PARSE


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
