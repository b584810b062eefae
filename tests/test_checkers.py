import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from operadlab import (builtin, parse_relation, relation_vector, Scalar, RatFunc,
                       RelationExpr, App, Var, check_cyclic, check_dihedral,
                       check_coassoc, check_counit, coassoc_family,
                       hopf_analyze, DiagonalCandidate, check_substitution_iso,
                       check_implies, verify_identity,
                       CheckerError, span_closure, sigma3_closure,
                       ActionMatrix, GAMMA3, TAU12, CYC123, EShape,
                       basis_vector, left_lambda, gamma_plus_split,
                       parse_presentation, Subspace, depolarize_presentation,
                       presentation_from_subspace, SlotMap, BUILTIN_NAMES)
from operadlab.checkers import (BPoly, _solve_constraints, _T3, _COMM_TABLE,
                                _T3_TABLE, _delta2_table, _hopf_constraints,
                                _render_row, _row_constraints, _sigma3_generators,
                                slotmap_from_exprs, InternalInconsistencyError)
from operadlab.cli import NAMED_MAPS, _named_map
from operadlab.free3 import _rref
from operadlab.scalar import SC0, SC1, as_scalar
from conftest import associator, E, M, C, B, X, Y, Z
from test_scalar import small_fracs

S = Scalar.from_fraction

# -- cyclicity / dihedrality ---------------------------------------------------

TAB = {
    "Ass": (True, True), "Poiss": (True, True), "LLq": (True, True),
    "LLinf": (True, True), "Vinberg": (False, False), "PreLie": (False, False),
    "G4": (True, True), "G5": (False, True), "G6": (True, True),
    "Com": (True, True), "Lie": (True, True),
    "CyclicNotDihedral": (True, False),
}


@pytest.mark.parametrize("name", sorted(TAB))
def test_cyclic_dihedral_verdicts(name):
    p = builtin(name)
    assert check_cyclic(p) == TAB[name][0]
    assert check_dihedral(p) == TAB[name][1]


def test_dihedral_routes_that_disagree_raise(monkeypatch):
    # a zero R ∩ Γ± splits nothing, while Ass is λ-invariant
    monkeypatch.setattr(Subspace, "intersect", lambda self, other: Subspace(self.shape))
    with pytest.raises(InternalInconsistencyError, match="dihedral methods disagree on Ass"):
        check_dihedral(builtin("Ass"))


def test_g5_offending_vector():
    G5 = builtin("G5")
    gam = ActionMatrix(G5.shape, GAMMA3)
    v = relation_vector(G5.shape, G5.relations[0])
    # gamma converts the axiom to -A(x,y,z) + A(y,x,z) - A(y,z,x)
    converted = (-associator("x", "y", "z") + associator("y", "x", "z")
                 - associator("y", "z", "x"))
    assert gam.apply(v) == relation_vector(G5.shape, converted)
    offending = associator("y", "x", "z") + associator("z", "x", "y")
    assert not G5.R.contains(relation_vector(G5.shape, offending))


def test_dihedral_methods_agree_on_random_closed_subspaces(t3_shape):
    rng = random.Random(20240810)
    acts = [lambda v: ActionMatrix(t3_shape, g).apply(v) for g in (TAU12, CYC123)]
    gamma = ActionMatrix(t3_shape, GAMMA3)
    lam = lambda v: left_lambda(t3_shape, v)
    gp, gm = gamma_plus_split(t3_shape)
    for _ in range(100):
        vecs = []
        for _ in range(rng.randint(1, 2)):
            v = [SC0] * t3_shape.basis_size
            for _ in range(rng.randint(1, 4)):
                v[rng.randrange(12)] = S(rng.randint(-3, 3))
            vecs.append(tuple(v))
        space = span_closure(t3_shape, vecs, acts)
        by_lambda = space.is_invariant(lam)
        by_split = (space.intersect(gp).dim + space.intersect(gm).dim) == space.dim
        assert by_lambda == by_split


MIXED_TOWER_T = (
    "operad T { gen m: none; rel ((q-1)/(2*q+6))*m(m(x,y),z)"
    " + ((3/7)*u*v)*m(x,m(y,z)) - (v/(q^2+1))*m(m(y,x),z)"
    " + (u+v)*m(y,m(x,z)) = 0; }")


def test_mixed_tower_relation_is_decided(monkeypatch):
    # coefficients in all of Q(q)(sqrt 2, sqrt q); the splitting route
    # used to grow its coefficients without bound on this relation
    p = parse_presentation(MIXED_TOWER_T)
    assert p.R.dim == 6
    assert check_cyclic(p) is False
    dims = []
    intersect = Subspace.intersect

    def recorded(self, other):
        out = intersect(self, other)
        dims.append(out.dim)
        return out

    monkeypatch.setattr(Subspace, "intersect", recorded)
    # no InternalInconsistencyError: the lambda route and the split agree
    assert check_dihedral(p) is False
    assert dims == [0, 0]       # R ∩ Γ+ and R ∩ Γ-
    # the Hopf constraints' echelon form has a constant row
    h = hopf_analyze(p)
    assert h.verdict == "none" and h.witness is None
    assert h.diagnostic.startswith("no admissible B; first failing relation: "
                                   "(1)*m(m(y,z),x)")


# The coefficient pool of the full_tower benchmark workload, and its negatives.
TOWER_POOL = ("u", "v", "q", "(q+1)", "(u*v)", "(v+u)", "((q-1)/(q+3))",
              "(u/2)", "(2*v)", "(1/3)")
TOWER_POOL += tuple(f"(-{c})" for c in TOWER_POOL)
MONOMIALS = tuple(f"m(m({a},{b}),{c})" for a, b, c in itertools.permutations("xyz")) \
    + tuple(f"m({a},m({b},{c}))" for a, b, c in itertools.permutations("xyz"))


def pool_draws(seed, count):
    """Relations of 4 to 6 distinct monomials with coefficients from the pool."""
    rng = random.Random(seed)
    for _ in range(count):
        monos = rng.sample(MONOMIALS, rng.randint(4, 6))
        body = " + ".join(f"{rng.choice(TOWER_POOL)}*{m}" for m in monos)
        yield f"operad D {{ params: q; gen m: none; rel {body} = 0; }}"


# The draws among the first 40 of seed 2026 on which check_dihedral took
# 1.8 to 101 s before the rank mod P was tried (233 s in all), with dim R
# and the dihedral verdict recorded then.  Draws 10 and 24, on which the
# exact γ and λ reductions took 18 s and 3 s, are pinned by the tests after
# this one; their checks are now fast, and their time (about 1.4 s each)
# goes to parsing.
SLOW_POOL_DRAWS = {11: (6, False), 12: (6, False), 18: (6, False),
                   20: (6, False), 23: (6, False), 27: (6, False),
                   31: (6, False), 32: (6, False), 33: (6, False)}


def test_slow_pool_draws_keep_their_verdicts():
    for i, text in enumerate(pool_draws(2026, 34)):
        if i in SLOW_POOL_DRAWS:
            p = parse_presentation(text)
            # no InternalInconsistencyError: both routes agree
            assert (p.R.dim, check_dihedral(p)) == SLOW_POOL_DRAWS[i], i


@pytest.fixture(scope="module")
def draws_10_and_24():
    texts = list(pool_draws(2026, 25))
    return {i: parse_presentation(texts[i]) for i in (10, 24)}


def test_draws_10_and_24_keep_their_verdicts(draws_10_and_24):
    # recorded by the exact route: dim R, cyclic, dihedral
    for i, p in draws_10_and_24.items():
        assert (p.R.dim, check_cyclic(p), check_dihedral(p)) == (6, False, False), i


def test_draw_10_is_answered_without_reducing_an_image(draws_10_and_24, monkeypatch):
    # the residues of the γ and λ images' remainders prove both "no"s, so
    # no image is reduced exactly
    def exact(self, vec):
        raise AssertionError("exact reduction of an image")

    monkeypatch.setattr(Subspace, "contains", exact)
    p = draws_10_and_24[10]
    assert check_cyclic(p) is False and check_dihedral(p) is False


# -- coassociativity and the counit ---------------------------------------------

FAMILY_POINTS = {
    "i": (2, 2, 0, 0),
    "ii": (5, 3, 3, -3),
    "iii": (2, 0, 2, 0),
    "iv": (3, 3, 3, 3),
}


@pytest.mark.parametrize("fam", sorted(FAMILY_POINTS))
def test_coassoc_families(fam):
    d = DiagonalCandidate.numeric(*FAMILY_POINTS[fam])
    assert coassoc_family(d) == fam
    assert check_coassoc(d)


def test_coassoc_fails_off_family():
    assert not check_coassoc(DiagonalCandidate.numeric(1, 1, 1, 0))
    rng = random.Random(7)
    found = 0
    while found < 20:
        d = DiagonalCandidate.numeric(*(rng.randint(-4, 4) for _ in range(4)))
        if coassoc_family(d) is not None:
            continue
        found += 1
        assert not check_coassoc(d)


def test_counit():
    b0 = Fraction(3, 2)
    fam = DiagonalCandidate.numeric(1 - b0, b0, b0, -b0)
    assert check_counit(fam)
    assert check_counit(DiagonalCandidate.numeric(1, 0, 0, 0))
    assert not check_counit(DiagonalCandidate.numeric(1, 1, 1, 1))


def test_counit_forces_family_ii():
    # the counit equations have the one-parameter solution A = 1-B, C = B,
    # D = -B, which lands inside coassociativity family (ii)
    rng = random.Random(3)
    for _ in range(10):
        b0 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        d = DiagonalCandidate.numeric(1 - b0, b0, b0, -b0)
        assert check_counit(d) and check_coassoc(d)
        assert coassoc_family(d) == ("ii" if b0 != 0 else "i") or b0 == 0
    # and any counital solution is of that shape
    for _ in range(40):
        a, b, c, d0 = (Fraction(rng.randint(-4, 4)) for _ in range(4))
        if check_counit(DiagonalCandidate.numeric(a, b, c, d0)):
            assert (a, c, d0) == (1 - b, b, -b)


def test_normalized_family_candidate():
    d = DiagonalCandidate.normalized_family()
    assert not d.is_numeric()
    at = d.at(Fraction(1, 4))
    assert at.is_numeric() and check_counit(at) and check_coassoc(at)


# -- Hopf analysis ----------------------------------------------------------------

def test_hopf_lie_and_friends_none():
    for name in ("Lie", "LLinf", "Vinberg", "PreLie", "G4", "G5", "G6"):
        assert hopf_analyze(builtin(name)).verdict == "none", name


def test_hopf_witnesses():
    assert hopf_analyze(builtin("Ass")).witness == SC0
    assert hopf_analyze(builtin("Poiss")).witness == S(Fraction(1, 4))
    h = hopf_analyze(builtin("LLq"))
    assert h.verdict == "unique"
    expect = (SC1 - Scalar.q()) * Fraction(1, 4)
    assert h.witness == expect
    assert h.witness_str() == "-1/4*q + 1/4"


def test_hopf_extwo_all():
    h = hopf_analyze(builtin("ExTwo"))
    assert h.verdict == "all"


def test_hopf_case_one():
    for name in ("Com", "free_comm"):
        h = hopf_analyze(builtin(name))
        assert h.verdict == "unique" and h.witness == {"A": 1}
    # the cyclic sum of c(c(x,y),z) is not preserved by c -> c (x) c
    c3 = parse_presentation("operad C3 { gen c: comm; "
                            "rel c(c(x,y),z) + c(c(y,z),x) + c(c(z,x),y) = 0; }")
    h = hopf_analyze(c3)
    assert h.verdict == "none" and h.witness is None
    assert h.diagnostic == ("relation image survives in the quotient: "
                            "(1)*c(c(y,z),x) + (1)*c(c(z,x),y) + (1)*c(c(x,y),z)")


def test_hopf_free_type3_all():
    assert hopf_analyze(builtin("free_type3")).verdict == "all"


def test_hopf_specialization_matches():
    h0 = hopf_analyze(builtin("LLq").specialize(0))
    h1 = hopf_analyze(builtin("LLq").specialize(1))
    assert h0.witness == hopf_analyze(builtin("Poiss")).witness
    assert h1.witness == hopf_analyze(builtin("Ass")).witness


HOPF_SCALAR_WITNESS = ("Ass", "G1", "LL0", "LL1", "LLminus3", "LLq",
                       "LLq_depolarized", "Poiss", "Poiss_polarized")


def test_a_unique_witness_is_a_scalar():
    # BPoly holds ints and Fractions on rational data; the witness does not
    ps = [builtin(n) for n in BUILTIN_NAMES]
    ps += [builtin("LLq").specialize(q0) for q0 in (0, 1, -3)]
    results = [(p, hopf_analyze(p)) for p in ps]
    unique = [(p, h) for p, h in results if h.verdict == "unique"]
    assert len(unique) >= len(HOPF_SCALAR_WITNESS) + 3
    for p, h in unique:
        comm = [g.symmetry for g in p.generators] == ["comm"]
        assert h.witness == {"A": 1} if comm else isinstance(h.witness, Scalar), p.name


def is_exact(c):
    """Whether c follows the `scalar.exact` convention."""
    return (type(c) is int or type(c) is Fraction and c.denominator != 1
            or type(c) is Scalar and not c.is_rational())


def test_relation_rows_hold_exact_entries():
    ps = [builtin(n) for n in BUILTIN_NAMES]
    ps += [parse_presentation(text) for text in pool_draws(2026, 10)]
    for p in ps:
        assert all(is_exact(c) for r in p.R.rows for c in r), p.name
    assert any(type(c) is Scalar for p in ps for r in p.R.rows for c in r)


@pytest.mark.parametrize("name", HOPF_SCALAR_WITNESS)
def test_hopf_witness_self_verifies(name):
    # substituting the witness back kills the relations in the quotient square
    p = depolarize_presentation(builtin(name))
    h = hopf_analyze(p)
    assert h.verdict == "unique" and isinstance(h.witness, Scalar)
    tbl = _delta2_table(DiagonalCandidate.normalized_family().at(h.witness))
    assert _hopf_constraints(p.shape, p.R, tbl) == []


def _hopf_table(p):
    """The slot table hopf_analyze pushes R through, or None when the
    generator has none (anticommutative, or not one generator)."""
    syms = [g.symmetry for g in p.generators]
    if syms == ["comm"]:
        return _COMM_TABLE
    if syms == ["none"]:
        return _T3_TABLE
    return None


def _echelon(constraints):
    triples = {(SC0,) * (2 - c.degree) + c.coeffs[::-1]
               for c, _ in constraints}
    return _rref(sorted(triples, key=lambda t: sum(as_scalar(x).bit_size() for x in t)), 3)


# the first three rows of R carry no surviving constraint, the fourth does
FIRST_ROW_PRESERVED = (
    "operad X { gen m: none; rel m(m(x,y),z) - m(z,m(y,x)) = 0;"
    " rel m(m(x,y),z) - m(x,m(y,z)) + m(m(y,z),x) - m(y,m(z,x))"
    " + m(m(z,x),y) - m(z,m(x,y)) = 0; }")
C3 = ("operad C3 { gen c: comm; "
      "rel c(c(x,y),z) + c(c(y,z),x) + c(c(z,x),y) = 0; }")
# dim R = 9; the first failing row is R.rows[3]
EXTWO_PLUS = {
    "N1": ("operad N1 { gen m: none; rel m(m(x,y),z) - m(z,m(y,x)) = 0;"
           " rel m(x,m(z,y)) + m(m(y,x),z) = 0; }"),
    "N2": ("operad N2 { gen m: none; rel m(m(x,y),z) - m(z,m(y,x)) = 0;"
           " rel m(y,m(z,x)) + m(z,m(y,x)) = 0; }"),
}


def _presentation(name):
    texts = {"T": MIXED_TOWER_T, "X": FIRST_ROW_PRESERVED, "C3": C3, **EXTWO_PLUS}
    p = parse_presentation(texts[name]) if name in texts else builtin(name)
    return depolarize_presentation(p)


@pytest.mark.parametrize("name", [n for n in BUILTIN_NAMES
                                  if _hopf_table(_presentation(n))] + ["T"])
def test_sigma3_generators_give_the_constraints_of_every_row(name):
    # Δ₃ is Σ3-equivariant and R (x) Γ + Γ (x) R is Σ3-stable, so the
    # constraints of the generator rows span those of all rows
    p = _presentation(name)
    tbl = _hopf_table(p)
    gens = _sigma3_generators(p.shape, p.R)
    assert gens == [r for r in p.R.rows if r in gens]     # rows of R, in order
    assert sigma3_closure(p.shape, gens) == p.R
    every_row = [c for r in p.R.rows for c in _row_constraints(p.shape, p.R, tbl, r)]
    assert _echelon(_hopf_constraints(p.shape, p.R, tbl)) == _echelon(every_row)


@pytest.mark.parametrize("name", [n for n in BUILTIN_NAMES
                                  if _hopf_table(_presentation(n))] + ["T"])
def test_hopf_constraints_keep_the_first_of_equal_ones(name):
    # the collector drops a constraint equal to an earlier one, so the
    # first constraint and its source row (the `none` diagnostic) stay
    p = _presentation(name)
    tbl = _hopf_table(p)
    produced = [c for r in _sigma3_generators(p.shape, p.R)
                for c in _row_constraints(p.shape, p.R, tbl, r)]
    first = {}
    for c, r in produced:
        first.setdefault(c.coeffs, r)
    got = _hopf_constraints(p.shape, p.R, tbl)
    assert [(c.coeffs, r) for c, r in got] == list(first.items())
    if name == "LLq":
        assert (len(produced), len(got)) == (32, 9)


NONE_VERDICTS = ("G2", "G2_polarized", "G3", "G4", "G4_polarized", "G5",
                 "G5_polarized", "G6", "LLinf", "PreLie", "Vinberg", "T", "X", "C3",
                 "N1", "N2")


@pytest.mark.parametrize("name", NONE_VERDICTS)
def test_none_diagnostic_names_the_first_failing_row(name):
    p = _presentation(name)
    tbl = _hopf_table(p)
    first = next(r for r in p.R.rows if _row_constraints(p.shape, p.R, tbl, r))
    if name in ("X", "N1", "N2"):    # R.rows[0] has no surviving constraint
        assert first != p.R.rows[0]
    if name in EXTWO_PLUS:
        assert (p.R.dim, p.R.rows.index(first)) == (9, 3)
    prefix = ("relation image survives in the quotient: " if name == "C3"
              else "no admissible B; first failing relation: ")
    h = hopf_analyze(p)
    assert h.verdict == "none"
    assert h.diagnostic == prefix + _render_row(p.shape, first)


def _solve(*polys):
    row = basis_vector(_T3, 0)
    return _solve_constraints(_T3, [(c, row) for c in polys])


def test_constraint_order_does_not_change_the_verdict():
    # B^2 - 2 and B^2 - 3 have no common root: none, whichever comes first
    b = BPoly.unknown()
    two, three = b * b - S(2), b * b - S(3)
    for polys in ((two, three, two), (three, two, three)):
        h = _solve(*polys)
        assert h.verdict == "none"
        assert h.diagnostic == ("no admissible B; first failing relation: "
                                "(1)*m(m(y,z),x)")


def test_quadratics_with_one_common_root():
    # each quadratic has two roots in the tower; 1 is the only common one
    b = BPoly.unknown()
    p = (b - Scalar.u()) * (b - S(1))
    r = (b - S(1)) * (b - S(3))
    for polys in ((p, r), (r, p)):
        h = _solve(*polys)
        assert h.verdict == "unique" and h.witness == S(1)


def test_shared_quadratic_factor_is_undecided():
    b = BPoly.unknown()
    c = Scalar.q() + Scalar.u()
    h = _solve(b * (b - S(1)) * c)
    assert h.verdict == "undecided" and h.witness is None
    assert h.diagnostic == ("constraints share the factor B^2 + (-1)*B = 0 "
                            "over the tower")


@pytest.mark.parametrize("polys, verdict, witness", [
    (lambda b: (b, b - S(1)), "none", None),
    # the root of the last echelon row B - 1 kills the row B^2 - 1 above it
    (lambda b: (b * b - S(1), b - S(1)), "unique", S(1)),
    # ... but not the row B^2 - 4
    (lambda b: (b * b - S(4), b - S(1)), "none", None),
], ids=["constant-row", "linear-row-kills-the-row-above",
        "linear-row-misses-the-row-above"])
def test_echelon_patterns(polys, verdict, witness):
    h = _solve(*polys(BPoly.unknown()))
    assert h.verdict == verdict and h.witness == witness


def test_bpoly_evaluates_at_a_tower_scalar():
    u, v = Scalar.u(), Scalar.v()
    x = u + v
    assert BPoly([])(x) == SC0
    assert BPoly([v])(x) == v
    # 3 - u*B + v*B^2 at B = u + v, expanded with u^2 = 2, v^2 = q
    value = BPoly([S(3), -u, v])(x)
    assert isinstance(value, Scalar)
    assert value == S(1) - u * v + S(2) * v + Scalar.q() * v + S(2) * u * Scalar.q()


def test_double_root_is_unique():
    b = BPoly.unknown()
    h = _solve((b - S(2)) * (b - S(2)) * S(-3))
    assert h.verdict == "unique" and h.witness == S(2)


# tower elements whose four components are polynomials of degree <= 1 in q
# (general rational functions make one solve take seconds)
tower = st.builds(Scalar, *[st.lists(small_fracs, max_size=2).map(RatFunc)] * 4)


@settings(max_examples=15, deadline=None)
@given(tower, st.lists(st.tuples(tower, tower), min_size=2, max_size=3))
def test_common_linear_factor_is_found_in_any_order(r, lins):
    b = BPoly.unknown()
    lins = [b * a0 + a1 for a0, a1 in lins if a0]
    # two non-proportional linear factors leave exactly B - r in common
    assume(len({as_scalar(-l.coeffs[0]) / l.coeffs[1] for l in lins}) >= 2)
    polys = [(b - r) * l for l in lins]
    for order in itertools.permutations(polys):
        h = _solve(*order)
        assert h.verdict == "unique" and h.witness == r


def test_hopf_rejects_multi_generator():
    p = builtin("CyclicNotDihedral")
    h = hopf_analyze(p)
    assert (h.verdict, h.witness) == ("unsupported", None)
    assert h.diagnostic == "unsupported multi-generator presentation"
    # a presentation with no generator is not a multi-generator one
    empty = hopf_analyze(parse_presentation("operad X { }"))
    assert (empty.verdict, empty.witness) == ("unsupported", None)
    assert empty.diagnostic == "unsupported presentation with no generator"


def test_hopf_polarized_pair_accepted():
    # LLq is a comm/anti pair: depolarized internally
    assert hopf_analyze(builtin("LLinf")).verdict == "none"
    assert hopf_analyze(builtin("Poiss_polarized")).witness == S(Fraction(1, 4))


# -- substitution isomorphisms ------------------------------------------------------

def star_map(target_gen="m"):
    half = Fraction(1, 2)
    v = Scalar.v()
    return RelationExpr([((SC1 + v) * half, App(target_gen, Var("x"), Var("y"))),
                         ((SC1 - v) * half, App(target_gen, Var("y"), Var("x")))])


def test_llq_iso_ass_symbolically():
    assert check_substitution_iso(builtin("Ass"), builtin("LLq_depolarized"),
                                  {"m": star_map()})


def test_prelie_iso_vinberg():
    flip = RelationExpr([(SC1, App("m", Var("y"), Var("x")))])
    assert check_substitution_iso(builtin("PreLie"), builtin("Vinberg"), {"m": flip})
    # and in polarized form via the sign flip on the bracket
    from operadlab import polarize_presentation
    pol3 = polarize_presentation(builtin("PreLie"))
    pol2 = polarize_presentation(builtin("Vinberg"))
    sgnflip = {
        "m_s": RelationExpr([(SC1, App("m_s", Var("x"), Var("y")))]),
        "m_a": RelationExpr([(-SC1, App("m_a", Var("x"), Var("y")))]),
    }
    assert check_substitution_iso(pol3, pol2, sgnflip)


def test_identity_map_iso():
    ident = RelationExpr([(SC1, App("m", Var("x"), Var("y")))])
    assert check_substitution_iso(builtin("Ass"), builtin("Ass"), {"m": ident})
    # non-example: Ass and Vinberg are not isomorphic via the identity
    assert not check_substitution_iso(builtin("Ass"), builtin("Vinberg"), {"m": ident})


def test_noninvertible_map_rejected():
    sing = RelationExpr([(SC1, App("m", Var("x"), Var("y"))),
                         (SC1, App("m", Var("y"), Var("x")))])
    with pytest.raises(CheckerError):
        check_substitution_iso(builtin("Ass"), builtin("Ass"), {"m": sing})


def test_nonequivariant_map_rejected():
    # a comm generator cannot map onto an asymmetric combination
    LLq = builtin("LLq")
    bad = {"c": RelationExpr([(SC1, App("c", Var("x"), Var("y")))]),
           "b": RelationExpr([(SC1, App("c", Var("x"), Var("y")))])}
    with pytest.raises(CheckerError):
        check_substitution_iso(LLq, LLq, bad)


# The iso verdict against the oracle that echelons the whole image space.
# The image of a source under a map depends on the source and the map
# alone, so each is built once.
_IMAGES = {}


def echelon_iso(p, p2, mapping):
    sm = slotmap_from_exprs(p, p2, mapping)
    if not sm.is_invertible():
        raise CheckerError("generator map is not invertible")
    key = (p.name, p.R, p2.shape,
           tuple((g, e.render()) for g, e in sorted(mapping.items())))
    if key not in _IMAGES:
        _IMAGES[key] = sm.apply_subspace(p.R)
    return _IMAGES[key] == p2.R


def iso_outcome(check, p, p2, mapping):
    try:
        return check(p, p2, mapping)
    except CheckerError as e:
        return f"error: {e}"


def assert_iso_equals_the_oracle(p, p2, mapping):
    verdict = iso_outcome(check_substitution_iso, p, p2, mapping)
    assert verdict == iso_outcome(echelon_iso, p, p2, mapping), (p.name, p2.name)
    return verdict


@functools.cache
def specialized(name, q0):
    return builtin(name) if q0 is None else builtin(name).specialize(q0)


@functools.cache
def depolarized(name, q0):
    return depolarize_presentation(specialized(name, q0))


def cli_iso_inputs(n1, n2, name, q0):
    """The (source, target, mapping) triples that `iso n1 n2 --map name
    [--q q0]` tries, in its order: star from the second presentation's side
    and then from the first's, any other map once."""
    p, p2 = specialized(n1, q0), specialized(n2, q0)
    if name in ("star", "opposite") or ([g.symmetry for g in p.generators]
                                        != [g.symmetry for g in p2.generators]):
        p, p2 = depolarized(n1, q0), depolarized(n2, q0)
    out = []
    for src, dst in ((p2, p), (p, p2)) if name == "star" else ((p, p2),):
        mapping = _named_map(name, src, dst)
        if q0 is not None:
            mapping = {g: e.specialize(q0) for g, e in mapping.items()}
        out.append((src, dst, mapping))
    return out


def cli_iso_verdict(verdicts):
    """iso's answer from the verdicts of its tries: True if one is True;
    otherwise each distinct error once, sorted, on one line; otherwise
    False."""
    if True in verdicts:
        return True
    faults = sorted({v.removeprefix("error: ") for v in verdicts if v is not False})
    return "error: " + "; ".join(faults) if faults else False


# the builtins that --q is tried on: LLq in both forms and the two
# presentations it specializes to
Q_PARTNERS = ("Ass", "LLq", "LLq_depolarized", "Poiss", "Poiss_polarized")


def test_named_maps_match_the_echelon_oracle():
    seen, first = set(), {}
    cases = [(n1, n2, None) for n1, n2 in itertools.product(BUILTIN_NAMES, repeat=2)]
    cases += [(n1, n2, q0) for n1, n2 in itertools.product(Q_PARTNERS, repeat=2)
              for q0 in (4, Fraction(1, 4))]
    for (n1, n2, q0), name in itertools.product(cases, NAMED_MAPS):
        try:
            tries = cli_iso_inputs(n1, n2, name, q0)
        except CheckerError:            # the map names a missing generator
            continue
        verdicts = [assert_iso_equals_the_oracle(*t) for t in tries]
        if name == "star":
            first[n1, n2, q0] = verdicts[0]
        seen.add((n1, n2, name, q0, cli_iso_verdict(verdicts)))
    for q0 in (None, 4, Fraction(1, 4)):
        # LLq at q0 is Ass through the star map, which runs from LLq's side;
        # iso finds it in either argument order
        assert first["LLq", "Ass", q0] is True and first["Ass", "LLq", q0] is False
        assert ("LLq", "Ass", "star", q0, True) in seen
        assert ("Ass", "LLq", "star", q0, True) in seen
    assert ("LL0", "Poiss", "star", None, True) in seen
    assert ("Poiss", "LL0", "star", None, True) in seen
    assert ("Ass", "Poiss", "star", None, False) in seen
    # one verdict, or one error text, in either order
    star = {(n1, n2, q0): v for n1, n2, name, q0, v in seen if name == "star"}
    assert all(v == star[n2, n1, q0] for (n1, n2, q0), v in star.items())
    assert star["Ass", "Com", None] == (
        "error: generator map is not equivariant for the transposition action; "
        "generator map is not invertible")
    assert {v for *_, v in seen} >= {True, False, "error: generator map is not invertible"}


def fractions_apart(rng):
    """Two rationals a, b with a != ±b, so that a m + b m^op is invertible."""
    while True:
        a, b = (Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2))
        if a not in (b, -b):
            return a, b


def app_expr(*terms):
    return RelationExpr([(Scalar.from_fraction(c), App(g, Var(s), Var(t)))
                         for c, (g, s, t) in terms])


def test_random_maps_match_the_echelon_oracle():
    rng = random.Random(31)
    one_gen = [n for n in BUILTIN_NAMES
               if [g.symmetry for g in builtin(n).generators] == ["none"]]
    polarized = [n for n in BUILTIN_NAMES
                 if [g.symmetry for g in builtin(n).generators] == ["comm", "anti"]]
    verdicts = []
    for k in range(48):
        if k % 2:       # m -> a m(x,y) + b m(y,x)
            p = builtin(rng.choice(one_gen))
            a, b = fractions_apart(rng)
            mapping = {"m": app_expr((a, ("m", "x", "y")), (b, ("m", "y", "x")))}
        else:           # c -> αc, b -> βb
            p = builtin(rng.choice(polarized))
            (c, cn), (bn, bb) = ((g.name, g.name) for g in p.generators)
            mapping = {c: app_expr((Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 3)),
                                    (cn, "x", "y"))),
                       bn: app_expr((Fraction(rng.choice((-2, 1, 3)), rng.randint(1, 4)),
                                     (bb, "x", "y")))}
        if k % 4 < 2:   # onto the image itself, so that the answer is True
            sm = slotmap_from_exprs(p, p, mapping)
            p2 = presentation_from_subspace("image", sm.apply_subspace(p.R))
        else:
            pool = one_gen if k % 2 else polarized
            p2 = builtin(rng.choice(pool))
        verdicts.append(assert_iso_equals_the_oracle(p, p2, mapping))
    assert True in verdicts and False in verdicts


def test_iso_pairs_of_another_dimension_or_another_space():
    ident = {"m": app_expr((1, ("m", "x", "y")))}
    for n1, n2 in (("Ass", "G2"), ("G2", "Ass"), ("G2", "G3"), ("G5", "G6")):
        p, p2 = builtin(n1), builtin(n2)
        assert assert_iso_equals_the_oracle(p, p2, ident) is False, (n1, n2)
    # G2 and G3 have the same dimension: the images decide
    assert builtin("G2").R.dim == builtin("G3").R.dim == 3


def test_iso_builds_no_image_space(monkeypatch):
    def refuse(*args):
        raise AssertionError("image space echeloned or compared")

    monkeypatch.setattr(SlotMap, "apply_subspace", refuse)
    monkeypatch.setattr(Subspace, "__eq__", refuse)
    assert check_substitution_iso(builtin("Ass"), builtin("LLq_depolarized"),
                                  {"m": star_map()}) is True
    assert check_substitution_iso(builtin("Ass"), builtin("Poiss"),
                                  {"m": star_map()}) is False


# -- implications and identities ------------------------------------------------------

def test_llq_contains_g5_axiom():
    LLq = builtin("LLq")
    eq7 = parse_relation("b(c(x,y),z) + b(c(y,z),x) + b(c(z,x),y)", LLq)
    assert check_implies(LLq, eq7)
    # so R_G5 (polarized) sits inside R_LLq
    assert LLq.R.contains_all(builtin("G5_polarized").R.rows)


def test_g4_versus_ll_axioms():
    G4p = builtin("G4_polarized")
    jac = parse_relation("b(x,b(y,z)) + b(y,b(z,x)) + b(z,b(x,y))", G4p)
    dist = parse_relation("b(x,c(y,z)) - c(b(x,y),z) - c(y,b(x,z))", G4p)
    ax3_q_plus1 = parse_relation("c(c(x,y),z) - c(x,c(y,z)) - b(y,b(x,z))", G4p)
    ax3_q_minus1 = parse_relation("c(c(x,y),z) - c(x,c(y,z)) + b(y,b(x,z))", G4p)
    assert check_implies(G4p, jac)
    assert check_implies(G4p, ax3_q_plus1)
    # the printed claim pairs G4 with the q = -1 member; the exact
    # polarization shows it is the q = +1 member (see the G4 builtin)
    assert not check_implies(G4p, ax3_q_minus1)
    assert not check_implies(G4p, dist)


def test_jacobi_from_cyclic_sum_of_eq1():
    LLq = builtin("LLq")
    eq1 = parse_relation("b(y,b(x,z)) - c(c(x,y),z) + c(x,c(y,z))", LLq)
    only_eq1 = sigma3_closure(LLq.shape, [relation_vector(LLq.shape, eq1)])
    jac = parse_relation("b(x,b(y,z)) + b(y,b(z,x)) + b(z,b(x,y))", LLq)
    assert only_eq1.contains(relation_vector(LLq.shape, jac))


def test_alphabet_mismatch():
    with pytest.raises(CheckerError):
        check_implies(builtin("Ass"), E(C(C(X, Y), Z)))


def test_quarter_identity_corrected():
    Ass = builtin("Ass")
    def u1(x, y, z):
        return (associator(x, y, z) - associator(y, x, z) + associator(z, y, x)
                + associator(x, z, y) + associator(y, z, x) - associator(z, x, y))

    def u2(x, y, z):
        return (associator(x, y, z) + associator(y, x, z) - associator(z, y, x)
                + associator(x, z, y) - associator(y, z, x) - associator(z, x, y))

    # u_i(x,z,y) and u_i(z,x,y): the renamings x,y,z -> x,z,y and -> z,x,y
    u_xzy = (u1("x", "z", "y"), u2("x", "z", "y"))
    u_zxy = (u1("z", "x", "y"), u2("z", "x", "y"))
    quarter = Fraction(1, 4)
    corrected = (u_xzy[0] + u_xzy[1] + u_zxy[0] - u_zxy[1]).scale(quarter)
    assert verify_identity(Ass, associator("x", "y", "z"), corrected)
    # the printed combination (with the minus) is NOT an identity
    literal = (u_xzy[0] + u_xzy[1] - u_zxy[0] + u_zxy[1]).scale(quarter)
    assert not verify_identity(Ass, associator("x", "y", "z"), literal)


def test_sixth_identity_for_poisson_axiom():
    Poiss = builtin("Poiss")
    v1 = (E(M(M(X, Y), Z)) + E(M(M(Y, X), Z)) - E(M(M(Z, Y), X)) - E(M(M(Y, Z), X))
          - E(M(X, M(Y, Z))) - E(M(X, M(Z, Y))) + E(M(Z, M(Y, X))) + E(M(Z, M(X, Y))))
    v2 = (E(M(M(X, Y), Z)) - E(M(M(Y, X), Z)) - E(M(M(Z, Y), X)) - E(M(M(X, Z), Y))
          + E(M(M(Y, Z), X)) + E(M(M(Z, X), Y)) - E(M(X, M(Y, Z))) + E(M(Y, M(X, Z)))
          + E(M(Z, M(Y, X))) + E(M(X, M(Z, Y))) - E(M(Y, M(Z, X))) - E(M(Z, M(X, Y))))

    def v3_at(x, y, z):
        return (E(M(M(x, y), z)) - E(M(M(y, x), z)) + E(M(M(z, y), x)) + E(M(M(x, z), y))
                + E(M(M(y, z), x)) - E(M(M(z, x), y)) - E(M(x, M(y, z))) + E(M(y, M(x, z)))
                - E(M(z, M(y, x))) - E(M(x, M(z, y))) - E(M(y, M(z, x))) + E(M(z, M(x, y))))

    v3 = v3_at(X, Y, Z)
    third = Fraction(1, 3)
    v = (E(M(M(X, Y), Z)) - E(M(X, M(Y, Z)))
         - E(M(M(X, Z), Y)).scale(third) - E(M(M(Y, Z), X)).scale(third)
         + E(M(M(Y, X), Z)).scale(third) + E(M(M(Z, X), Y)).scale(third))
    comb = (v1.scale(2) + v2 + v3
            + v3_at(Z, X, Y).scale(2)).scale(Fraction(1, 6))
    assert verify_identity(Poiss, v, comb)
    # v1, v2, v3 are the depolarized axioms and generate R
    closure = sigma3_closure(Poiss.shape,
                             [relation_vector(Poiss.shape, w) for w in (v1, v2, v3)])
    assert closure == Poiss.R
    # and the single vector v generates R as well (the "exercise")
    assert sigma3_closure(Poiss.shape, [relation_vector(Poiss.shape, v)]) == Poiss.R


def test_loday_three_term_split():
    G2p = builtin("G2_polarized")
    term1 = E(C(C(X, Z), Y)) - E(C(X, C(Z, Y))) - E(B(Z, B(X, Y)))
    term2 = E(C(B(X, Y), Z)) + E(C(Y, B(X, Z))) - E(B(X, C(Y, Z)))
    term3 = E(B(Y, C(X, Z))) - E(C(X, B(Y, Z))) - E(C(B(Y, X), Z))
    assert verify_identity(G2p, G2p.relations[0], term1 + term2 + term3)


def test_transported_verdicts_match():
    # isomorphic presentations have identical verdicts (LLq/Ass at q = 4,
    # PreLie/Vinberg)
    p = builtin("LLq_depolarized").specialize(4)
    a = builtin("Ass")
    assert (check_cyclic(p), check_dihedral(p)) == (check_cyclic(a), check_dihedral(a))
    hp, ha = hopf_analyze(p), hopf_analyze(a)
    assert hp.verdict == ha.verdict == "unique"
    v, pl = builtin("Vinberg"), builtin("PreLie")
    assert (check_cyclic(v), check_dihedral(v)) == (check_cyclic(pl), check_dihedral(pl))
    assert hopf_analyze(v).verdict == hopf_analyze(pl).verdict == "none"
