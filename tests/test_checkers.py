import random
from fractions import Fraction

import pytest

from operadlab import (builtin, parse_relation, relation_vector, Scalar,
                       RelationExpr, App, Var, check_cyclic, check_dihedral,
                       check_coassoc, check_counit, coassoc_family,
                       hopf_analyze, DiagonalCandidate, check_substitution_iso,
                       check_implies, verify_identity, verdict_report,
                       CheckerError, span_closure, sigma3_closure,
                       ActionMatrix, GAMMA3, TAU12, CYC123, EShape,
                       basis_vector, left_lambda, gamma_plus_split,
                       parse_presentation)
from operadlab.checkers import BPoly, _scalar_sqrt
from conftest import associator, E, M, C, B, X, Y, Z

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
            v = [Scalar.zero()] * t3_shape.basis_size
            for _ in range(rng.randint(1, 4)):
                v[rng.randrange(12)] = S(rng.randint(-3, 3))
            vecs.append(tuple(v))
        space = span_closure(t3_shape, vecs, acts)
        by_lambda = space.is_invariant(lam)
        by_split = (space.intersect(gp).dim + space.intersect(gm).dim) == space.dim
        assert by_lambda == by_split


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
    assert hopf_analyze(builtin("Ass")).witness == Scalar.zero()
    assert hopf_analyze(builtin("Poiss")).witness == S(Fraction(1, 4))
    h = hopf_analyze(builtin("LLq"))
    assert h.verdict == "unique"
    expect = (Scalar.one() - Scalar.q()) * Fraction(1, 4)
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


def test_hopf_witness_self_verifies():
    # substituting the witness back kills the relations in the quotient square
    from operadlab.checkers import _hopf_type3, _delta2_table, _delta3, _reduce_bpoly
    p = builtin("Poiss")
    h = hopf_analyze(p)
    d = DiagonalCandidate.normalized_family().at(h.witness)
    tbl = _delta2_table(d)
    for r in p.R.rows:
        entries = {}
        for w, cw in enumerate(r):
            if not cw:
                continue
            for coeff, (i, j) in _delta3(p.shape, tbl, w):
                entries[(i, j)] = entries.get((i, j), BPoly.const(Scalar.zero())) + coeff * cw
        cols = {}
        for (i, j), cc in entries.items():
            cols.setdefault(j, {})[i] = cc
        half = {}
        for j, col in cols.items():
            for i, cc in _reduce_bpoly(col, p.R):
                half.setdefault(i, {})[j] = cc
        for i, row in half.items():
            assert not _reduce_bpoly(row, p.R)


def test_hopf_rejects_multi_generator():
    with pytest.raises(CheckerError):
        hopf_analyze(builtin("CyclicNotDihedral"))


def test_hopf_polarized_pair_accepted():
    # LLq is a comm/anti pair: depolarized internally
    assert hopf_analyze(builtin("LLinf")).verdict == "none"
    assert hopf_analyze(builtin("Poiss_polarized")).witness == S(Fraction(1, 4))


def test_scalar_sqrt_helper():
    q = Scalar.q()
    assert _scalar_sqrt(S(4)) == S(2)
    assert _scalar_sqrt(S(2)) == Scalar.u()
    assert _scalar_sqrt(q) == Scalar.v()
    assert _scalar_sqrt(S(2) * q) == Scalar.u() * Scalar.v()
    assert _scalar_sqrt(q * q) == q
    assert _scalar_sqrt(S(3)) is None


# -- substitution isomorphisms ------------------------------------------------------

def star_map(target_gen="m"):
    half = Fraction(1, 2)
    v = Scalar.v()
    return RelationExpr([((Scalar.one() + v) * half, App(target_gen, Var("x"), Var("y"))),
                         ((Scalar.one() - v) * half, App(target_gen, Var("y"), Var("x")))])


def test_llq_iso_ass_symbolically():
    assert check_substitution_iso(builtin("Ass"), builtin("LLq_depolarized"),
                                  {"m": star_map()})


def test_prelie_iso_vinberg():
    flip = RelationExpr([(Scalar.one(), App("m", Var("y"), Var("x")))])
    assert check_substitution_iso(builtin("PreLie"), builtin("Vinberg"), {"m": flip})
    # and in polarized form via the sign flip on the bracket
    from operadlab import polarize_presentation
    pol3 = polarize_presentation(builtin("PreLie"))
    pol2 = polarize_presentation(builtin("Vinberg"))
    sgnflip = {
        "m_s": RelationExpr([(Scalar.one(), App("m_s", Var("x"), Var("y")))]),
        "m_a": RelationExpr([(-Scalar.one(), App("m_a", Var("x"), Var("y")))]),
    }
    assert check_substitution_iso(pol3, pol2, sgnflip)


def test_identity_map_iso():
    ident = RelationExpr([(Scalar.one(), App("m", Var("x"), Var("y")))])
    assert check_substitution_iso(builtin("Ass"), builtin("Ass"), {"m": ident})
    # non-example: Ass and Vinberg are not isomorphic via the identity
    assert not check_substitution_iso(builtin("Ass"), builtin("Vinberg"), {"m": ident})


def test_noninvertible_map_rejected():
    sing = RelationExpr([(Scalar.one(), App("m", Var("x"), Var("y"))),
                         (Scalar.one(), App("m", Var("y"), Var("x")))])
    with pytest.raises(CheckerError):
        check_substitution_iso(builtin("Ass"), builtin("Ass"), {"m": sing})


def test_nonequivariant_map_rejected():
    # a comm generator cannot map onto an asymmetric combination
    LLq = builtin("LLq")
    bad = {"c": RelationExpr([(Scalar.one(), App("c", Var("x"), Var("y")))]),
           "b": RelationExpr([(Scalar.one(), App("c", Var("x"), Var("y")))])}
    with pytest.raises(CheckerError):
        check_substitution_iso(LLq, LLq, bad)


# -- implications and identities ------------------------------------------------------

def test_llq_contains_g5_axiom():
    LLq = builtin("LLq")
    eq7 = parse_relation("b(c(x,y),z) + b(c(y,z),x) + b(c(z,x),y)", LLq)
    assert check_implies(LLq, eq7)
    # so R_G5 (polarized) sits inside R_LLq
    assert LLq.R.contains_subspace(builtin("G5_polarized").R)


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
    u1 = (associator("x", "y", "z") - associator("y", "x", "z")
          + associator("z", "y", "x") + associator("x", "z", "y")
          + associator("y", "z", "x") - associator("z", "x", "y"))
    u2 = (associator("x", "y", "z") + associator("y", "x", "z")
          - associator("z", "y", "x") + associator("x", "z", "y")
          - associator("y", "z", "x") - associator("z", "x", "y"))
    xzy = {"x": "x", "y": "z", "z": "y"}
    zxy = {"x": "z", "y": "x", "z": "y"}
    quarter = Fraction(1, 4)
    corrected = ((u1 + u2).substitute(xzy) + (u1 - u2).substitute(zxy)).scale(quarter)
    assert verify_identity(Ass, associator("x", "y", "z"), corrected)
    # the printed combination (with the minus) is NOT an identity
    literal = ((u1 + u2).substitute(xzy) - (u1 - u2).substitute(zxy)).scale(quarter)
    assert not verify_identity(Ass, associator("x", "y", "z"), literal)


def test_sixth_identity_for_poisson_axiom():
    Poiss = builtin("Poiss")
    v1 = (E(M(M(X, Y), Z)) + E(M(M(Y, X), Z)) - E(M(M(Z, Y), X)) - E(M(M(Y, Z), X))
          - E(M(X, M(Y, Z))) - E(M(X, M(Z, Y))) + E(M(Z, M(Y, X))) + E(M(Z, M(X, Y))))
    v2 = (E(M(M(X, Y), Z)) - E(M(M(Y, X), Z)) - E(M(M(Z, Y), X)) - E(M(M(X, Z), Y))
          + E(M(M(Y, Z), X)) + E(M(M(Z, X), Y)) - E(M(X, M(Y, Z))) + E(M(Y, M(X, Z)))
          + E(M(Z, M(Y, X))) + E(M(X, M(Z, Y))) - E(M(Y, M(Z, X))) - E(M(Z, M(X, Y))))
    v3 = (E(M(M(X, Y), Z)) - E(M(M(Y, X), Z)) + E(M(M(Z, Y), X)) + E(M(M(X, Z), Y))
          + E(M(M(Y, Z), X)) - E(M(M(Z, X), Y)) - E(M(X, M(Y, Z))) + E(M(Y, M(X, Z)))
          - E(M(Z, M(Y, X))) - E(M(X, M(Z, Y))) - E(M(Y, M(Z, X))) + E(M(Z, M(X, Y))))
    third = Fraction(1, 3)
    v = (E(M(M(X, Y), Z)) - E(M(X, M(Y, Z)))
         - E(M(M(X, Z), Y)).scale(third) - E(M(M(Y, Z), X)).scale(third)
         + E(M(M(Y, X), Z)).scale(third) + E(M(M(Z, X), Y)).scale(third))
    comb = (v1.scale(2) + v2 + v3
            + v3.substitute({"x": "z", "y": "x", "z": "y"}).scale(2)).scale(Fraction(1, 6))
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


def test_verdict_report_shape():
    r = verdict_report(builtin("G5"))
    assert r == {"presentation": "G5", "cyclic": False, "dihedral": True,
                 "hopf": {"verdict": "none", "witness": None}}


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
