from fractions import Fraction

import pytest

from operadlab import (builtin, parse_presentation, parse_relation,
                       relation_vector, Presentation, ParseError,
                       PresentationError, BUILTIN_NAMES, Scalar,
                       polarize_presentation, depolarize_presentation,
                       sigma3_closure, right_action, SIGMA3, App,
                       RelationExpr, Var, check_implies, CheckerError)
from operadlab.presentation import parse_expression
from conftest import associator, E, M, X, Y, Z

# hand-checked relation-space dimensions for every builtin
GOLDEN_DIMS = {
    "Ass": 6, "Com": 2, "Lie": 1, "Poiss": 6, "Poiss_polarized": 6,
    "LLq": 6, "LL0": 6, "LL1": 6, "LLinf": 6, "LLq_depolarized": 6,
    "LLminus3": 6, "G1": 6, "G2": 3, "G3": 3, "G4": 3, "G5": 2, "G6": 1,
    "Vinberg": 3, "PreLie": 3, "G2_polarized": 3, "G4_polarized": 3,
    "G5_polarized": 2, "CyclicNotDihedral": 4, "ExTwo": 6,
    "free_type3": 0, "free_comm": 0, "free_anti": 0,
}


def test_builtin_names_cover_goldens():
    assert set(BUILTIN_NAMES) == set(GOLDEN_DIMS)


@pytest.mark.parametrize("name", sorted(GOLDEN_DIMS))
def test_builtin_dims(name):
    assert builtin(name).R.dim == GOLDEN_DIMS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_DIMS))
def test_relation_space_is_sigma3_invariant(name):
    p = builtin(name)
    for g in SIGMA3:
        for r in p.R.rows:
            assert p.R.contains(right_action(p.shape, r, g))


@pytest.mark.parametrize("name", sorted(GOLDEN_DIMS))
def test_render_parse_roundtrip(name):
    p = builtin(name)
    p2 = parse_presentation(p.render())
    assert p2.generators == p.generators
    assert p2.R == p.R
    assert p2.params == p.params


def test_unknown_builtin():
    with pytest.raises(PresentationError):
        builtin("Frobenius")


# -- parsing ------------------------------------------------------------------

def test_parse_associativity_example():
    p = parse_presentation("gen m: none; rel m(m(x,y),z) - m(x,m(y,z)) = 0;")
    assert p.R == builtin("Ass").R


def test_parse_distributive_law_example():
    text = ("gen c: comm; gen b: anti; "
            "rel b(x, c(y,z)) - c(b(x,y),z) - c(y, b(x,z)) = 0;")
    p = parse_presentation(text)
    assert p.R.dim == 3
    # it is one of the three axiom closures inside polarized Poisson
    assert builtin("Poiss_polarized").R.contains_subspace(p.R)


def test_parse_scalar_literals():
    p = parse_presentation("""operad t {
        params: q;
        gen m: none;
        rel 2*m(m(x,y),z) - (1/3)*m(x,m(y,z)) + ((q-1)/(q+3))*m(m(y,x),z)
            + u*m(m(z,x),y) - (v/2)*m(m(x,z),y) = 0;
    }""")
    vec = relation_vector(p.shape, p.relations[0])
    sx = {c.render() for c in vec if c}
    assert "2" in sx and "-1/3" in sx and "(q - 1)/(q + 3)" in sx
    assert "u" in sx and "((-1/2))*v" in sx or "(-1/2)*v" in sx


def _power(text):
    (coef, _), = parse_expression(f"({text})*m(x,y)").terms
    return coef


def test_scalar_power_by_squaring():
    assert _power("2^100000") == Scalar.from_fraction(2 ** 100000)
    assert _power("(1/3)^0") == Scalar.one()
    for atom in ("q", "u", "v", "(u+v)", "((q-1)/(u*v+3))"):
        base, want = _power(atom), Scalar.one()
        for k in range(10):
            assert _power(f"{atom}^{k}") == want, (atom, k)
            want = want * base


def test_parse_error_unbalanced():
    with pytest.raises(ParseError) as ei:
        parse_presentation("rel m(m(x,y),z) - m(x,m(y,z)")
    assert "unbalanced parentheses" in str(ei.value)
    assert (ei.value.line, ei.value.col) == (1, 28)


def test_parse_error_unknown_generator():
    with pytest.raises(ParseError) as ei:
        parse_presentation("gen m: none; rel k(m(x,y),z) = 0;")
    assert "unknown generator" in str(ei.value)


def test_parse_error_duplicate_variable():
    with pytest.raises(ParseError) as ei:
        parse_presentation("gen m: none; rel m(m(x,x),z) = 0;")
    assert "used twice" in str(ei.value)


def test_parse_error_wrong_arity():
    with pytest.raises(ParseError) as ei:
        parse_presentation("gen m: none; rel m(x,y,z) = 0;")
    assert "wrong arity" in str(ei.value)


def test_parse_error_lexical():
    with pytest.raises(ParseError) as ei:
        parse_presentation("gen m: none; rel m(x,y)$ = 0;")
    assert "lexical error" in str(ei.value)


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])   # superscript 2, Arabic-Indic 3
def test_non_ascii_digit_is_a_lexical_error(digit):
    with pytest.raises(ParseError) as ei:
        parse_presentation(f"gen m: none; rel 2{digit}*m(m(x,y),z) = 0;")
    assert ei.value.msg == f"lexical error: unexpected character {digit!r}"
    assert (ei.value.line, ei.value.col) == (1, 19)
    with pytest.raises(ParseError) as ei:
        parse_relation(f"{digit}*m(m(x,y),z)", builtin("Ass"))
    assert (ei.value.msg, ei.value.line, ei.value.col) == (
        f"lexical error: unexpected character {digit!r}", 1, 1)


def test_parse_error_three_applications():
    with pytest.raises(ParseError) as ei:
        parse_presentation("gen m: none; rel m(m(m(x,y),z),z) = 0;")
    assert "exactly two generator applications" in str(ei.value)


def test_comments_and_a_leading_minus():
    text = ("# Ass, negated\n\tgen m: none;   # one generator\n"
            "rel -m(m(x,y),z) + m(x,m(y,z)) = 0;  # no newline at the end")
    p = parse_presentation(text)
    assert p.R == builtin("Ass").R
    assert p.relations[0].render() == "-m(m(x,y),z) + m(x,m(y,z))"
    # a comment swallows the rest of its line, '(' included, and positions
    # on the following lines count from their own start
    with pytest.raises(ParseError) as ei:
        parse_presentation("# c\n\tgen m: none; # (\nrel -k(m(x,y),z) = 0;")
    assert (ei.value.msg, ei.value.line, ei.value.col) == (
        "unknown generator 'k'", 3, 6)


# (text, message, line, col) of faults outside the monomials
GRAMMAR_FAULTS = [
    ("operad t { params: p; gen m: none; }",
     "the only supported parameter is q", 1, 20),
    ("operad { gen m: none; }", "expected presentation name", 1, 8),
    ("gen m: assoc;", "unknown symmetry 'assoc'", 1, 8),
    ("gen m: none; rel 1/0*m(m(x,y),z) = 0;", "zero denominator", 1, 18),
    ("gen m: none; rel (1/(q-q))*m(m(x,y),z) = 0;",
     "division by zero scalar", 1, 26),
    ("gen m: none; rel (q^x)*m(m(x,y),z) = 0;", "expected integer exponent",
     1, 21),
    # a top-level scalar is one atom: '^' needs parentheses
    ("gen m: none; rel q^2*m(m(x,y),z) = 0;",
     "expected '*' between scalar and application", 1, 19),
    ("gen m: none; rel m(m(x,y),z) = 1;", "relations must end in '= 0'", 1, 32),
    ("gen m: none; rel m(m(x,y),z) = 0; }", "unexpected '}'", 1, 35),
    ("operad t { gen m: none; } x", "unexpected 'x'", 1, 27),
    ("gen m: none; rel -m(m(x,y),z) = 0 # no ;", "expected ';', found ''",
     1, 33),
    # an unclosed scalar at the end of the input is unbalanced, like an
    # unclosed application
    ("gen m: none; rel (1/3", "unbalanced parentheses", 1, 21),
    ("gen m: none;\r\n rel (q-1\n", "unbalanced parentheses", 2, 9),
    ("gen m: none; rel m(m(x,y),z", "unbalanced parentheses", 1, 27),
]


@pytest.mark.parametrize("text,msg,line,col", GRAMMAR_FAULTS,
                         ids=[f[1] for f in GRAMMAR_FAULTS])
def test_grammar_fault_positions(text, msg, line, col):
    with pytest.raises(ParseError) as ei:
        parse_presentation(text)
    assert (ei.value.msg, ei.value.line, ei.value.col) == (msg, line, col)


def test_parse_relation_tails():
    ass = builtin("Ass")
    bare = parse_relation("m(m(x,y),z) - m(x,m(y,z))", ass)
    tailed = parse_relation("m(m(x,y),z) - m(x,m(y,z)) = 0", ass)
    assert tailed.render() == bare.render() == "m(m(x,y),z) - m(x,m(y,z))"
    for text, msg, col in [
            ("m(m(x,y),z) - m(x,m(y,z)) = 1", "relations must end in '= 0'", 29),
            ("m(m(x,y),z) - m(x,m(y,z)) = 0;", "unexpected ';'", 30),
            ("m(m(x,y),z) m(x,m(y,z))", "unexpected 'm'", 13),
            ("m(m(x,y),z) =", "relations must end in '= 0'", 13),
            ("(1/3", "unbalanced parentheses", 4)]:
        with pytest.raises(ParseError) as ei:
            parse_relation(text, ass)
        assert (ei.value.msg, ei.value.line, ei.value.col) == (msg, 1, col)



# one fault per monomial: the message and the position of the application
# it names, through the presentation parser (after "gen m: none; rel ") and
# through parse_relation against Ass
SINGLE_FAULTS = [
    ("k(m(x,y),z)", "unknown generator 'k'", 18, 1),
    ("m(k(x,y),z)", "unknown generator 'k'", 20, 3),
    ("m(z,k(x,y))", "unknown generator 'k'", 22, 5),
    ("m(x,y)", "every monomial must contain exactly two generator applications",
     18, 1),
    ("m(m(x,y),m(z,x))",
     "every monomial must contain exactly two generator applications", 18, 1),
    ("m(m(m(x,y),z),x)",
     "every monomial must contain exactly two generator applications", 20, 3),
    ("m(m(x,x),z)", "variable 'x' used twice in a monomial", 18, 1),
    ("m(x,m(y,y))", "variable 'y' used twice in a monomial", 18, 1),
    ("m(m(x,y),z) - k(x,m(y,z))", "unknown generator 'k'", 32, 15),
    ("2*m(m(x,y),z) + m(x, m(x, z))", "variable 'x' used twice in a monomial",
     34, 17),
]

# several faults in one monomial: the first in the order outer generator,
# number of inner applications, inner generator, nested application,
# repeated variable is reported
ORDERED_FAULTS = [
    ("k(n(x,x),z)", "unknown generator 'k'", 18, 1),
    ("m(n(x,x),z)", "unknown generator 'n'", 20, 3),
    ("m(m(m(x,x),z),z)",
     "every monomial must contain exactly two generator applications", 20, 3),
    ("m(z,m(k(x,y),z))",
     "every monomial must contain exactly two generator applications", 22, 5),
]


@pytest.mark.parametrize("text,msg,col,rel_col", SINGLE_FAULTS + ORDERED_FAULTS,
                         ids=[f[0] for f in SINGLE_FAULTS + ORDERED_FAULTS])
def test_monomial_fault_positions(text, msg, col, rel_col):
    with pytest.raises(ParseError) as ei:
        parse_presentation(f"gen m: none; rel {text} = 0;")
    assert (type(ei.value), ei.value.msg, ei.value.line, ei.value.col) == (
        ParseError, msg, 1, col)
    assert str(ei.value) == f"{msg} at 1:{col}"
    with pytest.raises(ParseError) as ei:
        parse_relation(text, builtin("Ass"))
    assert (type(ei.value), ei.value.msg, ei.value.line, ei.value.col) == (
        ParseError, msg, 1, rel_col)


# the same faults in a relation built in code: no position, and check_implies
# reports them as an alphabet mismatch
@pytest.mark.parametrize("node,msg", [
    (App("k", App("m", X, Y), Z), "unknown generator 'k'"),
    (App("m", X, Y),
     "every monomial must contain exactly two generator applications"),
    (App("m", App("m", X, X), Z), "variable 'x' used twice in a monomial"),
    (X, "monomial must be a generator application"),
    (App("m", App("m", X, Y), Var("w")), "unknown variable 'w'"),
    (App("m", App("m", Var("w"), X), Var("w")), "unknown variable 'w'"),
])
def test_monomial_faults_in_code(node, msg):
    with pytest.raises(PresentationError) as ei:
        relation_vector(builtin("Ass").shape, RelationExpr.of(node))
    assert (type(ei.value), str(ei.value)) == (PresentationError, msg)
    with pytest.raises(CheckerError) as ei:
        check_implies(builtin("Ass"), RelationExpr.of(node))
    assert str(ei.value) == f"alphabet mismatch: {msg}"


def test_reserved_generator_names():
    with pytest.raises(ParseError):
        parse_presentation("gen q: none; rel q(q(x,y),z) = 0;")


# -- relation vectors -----------------------------------------------------------

def test_associator_vector(t3_shape):
    vec = relation_vector(t3_shape, associator("x", "y", "z"))
    nonzero = {i for i, c in enumerate(vec) if c}
    assert len(nonzero) == 2
    vals = sorted(c.render() for c in vec if c)
    assert vals == ["-1", "1"]


def test_zero_expression(t3_shape):
    from operadlab import RelationExpr
    z = relation_vector(t3_shape, RelationExpr([]))
    assert not any(z)
    diff = associator("x", "y", "z") - associator("x", "y", "z")
    assert not any(relation_vector(t3_shape, diff))


def test_u1_is_signed_sum_of_associators(t3_shape):
    # u1 = A - A(yxz) + A(zyx) + A(xzy) + A(yzx) - A(zxy): six associators
    u1 = (associator("x", "y", "z") - associator("y", "x", "z")
          + associator("z", "y", "x") + associator("x", "z", "y")
          + associator("y", "z", "x") - associator("z", "x", "y"))
    vec = relation_vector(t3_shape, u1)
    assert sum(1 for c in vec if c) == 12
    assert builtin("Ass").R.contains(vec)


# -- specialisation and polarization helpers -------------------------------------

def test_llq_specializations():
    assert builtin("LLq").specialize(0).R == builtin("Poiss_polarized").R
    assert builtin("LL0").R == builtin("Poiss_polarized").R
    dep = builtin("LLq_depolarized")
    assert dep.specialize(0).R == builtin("Poiss").R
    assert dep.specialize(1).R == builtin("Ass").R


def test_specialize_pole_in_presentation():
    from operadlab import SpecializationError
    with pytest.raises(SpecializationError):
        builtin("LLq_depolarized").specialize(-3)


def test_polarize_presentation_roundtrip():
    p = builtin("Ass")
    pol = polarize_presentation(p)
    assert [g.symmetry for g in pol.generators] == ["comm", "anti"]
    back = depolarize_presentation(pol)
    # the depolarized generator is called m again by default
    assert back.R == p.R
    # comm/anti-only presentations polarize to themselves
    assert polarize_presentation(builtin("LLq")) is builtin("LLq")


def test_polarized_presentations_keep_the_closed_space():
    # (de)polarization hands over an already closed space; the relations it
    # lists must span exactly that space under the symmetric group
    derived = []
    for name in BUILTIN_NAMES:
        p = builtin(name)
        syms = sorted(g.symmetry for g in p.generators)
        if "none" in syms:
            derived.append(polarize_presentation(p))
        if syms == ["anti", "comm"]:
            derived.append(depolarize_presentation(p))
    assert len(derived) >= 20
    for d in derived:
        vecs = [relation_vector(d.shape, r) for r in d.relations]
        assert d.R == sigma3_closure(d.shape, vecs), d.name


def test_presentation_renders_params():
    assert "params: q;" in builtin("LLq").render()
    assert "params" not in builtin("Ass").render()
    # v counts as a use of q
    p = parse_presentation("gen m: none; rel v*m(m(x,y),z) - m(x,m(y,z)) = 0;")
    assert p.params == ("q",)
