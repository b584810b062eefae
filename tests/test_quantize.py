import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from operadlab import RatFunc, Scalar, builtin, parse_presentation
from operadlab.quantize import (TPoly, StarProduct, LLData, QuantizeError,
                                moyal_star, polarize_star, star_from_LL,
                                check_LL, satisfies, classical_limit,
                                basis_monomials, exact, _compiled)
from operadlab.scalar import SC1

U = Scalar.u()
HALF_U = U * Fraction(1, 2)
POISSON = builtin("Poiss_polarized")
# no relation: `satisfies` checks only that c is symmetric and b antisymmetric
SYMMETRIES = parse_presentation("gen c: comm; gen b: anti;")


def mono(i, j, c=1):
    return TPoly.monomial(i, j, c)


def associativity_defect(s, u, v, w):
    return (s(s(u, v), w) - s(u, s(v, w))).truncated(s.order)


# -- the polynomial-with-t carrier ------------------------------------------------

def test_tpoly_arithmetic():
    x, p = mono(1, 0), mono(0, 1)
    xp = x * p
    assert xp.coeffs == {(0, 1, 1): 1}
    assert (x + p) * (x - p) == x * x - p * p
    assert x.times_t(2).coeffs == {(2, 1, 0): 1}
    assert x.times_t().divide_t() == x
    with pytest.raises(QuantizeError):
        x.divide_t()


@pytest.mark.parametrize("other", [1, Fraction(1, 2), None],
                         ids=["int", "Fraction", "None"])
def test_adding_a_non_tpoly_is_a_type_error(other):
    x = mono(1, 0)
    for combine in (lambda: x + other, lambda: other + x,
                    lambda: x - other, lambda: other - x):
        with pytest.raises(TypeError, match="unsupported operand"):
            combine()


def test_tpoly_orders():
    x = mono(1, 0)
    t2x = x.times_t(2)
    capped = t2x.truncated(2)
    assert capped.is_zero_mod(2)
    assert t2x.order is None
    assert TPoly({(0, 1, 0): 1}, order=3).order == 3
    a = TPoly({(0, 1, 0): 1}, order=3)
    b = TPoly({(1, 0, 0): 1}, order=None)
    assert (a * b).order == 3


def test_tpoly_derivatives():
    f = mono(2, 3)
    assert f.dx() == mono(1, 3, 2)
    assert f.dp() == mono(2, 2, 3)
    assert mono(0, 0).dx().is_zero_mod()


def test_basis_monomials_count():
    assert len(basis_monomials(4)) == 15
    assert len(basis_monomials(2)) == 6
    assert basis_monomials(0) == [mono(0, 0)]
    with pytest.raises(QuantizeError):
        basis_monomials(-1)


def test_coefficient_types_are_canonical():
    ones = [TPoly({(0, 1, 0): c}) for c in (1, Fraction(1), SC1)]
    halves = [TPoly({(1, 0, 2): c}) for c in
              (Fraction(1, 2), Scalar.from_fraction(Fraction(1, 2)), HALF_U * HALF_U)]
    for polys, text in ((ones, "(1)*x"), (halves, "(1/2)*tp^2")):
        assert polys[0] == polys[1] == polys[2]
        assert len({hash(f) for f in polys}) == 1
        assert {f.render() for f in polys} == {text}
    assert all(type(f.coeffs[(0, 1, 0)]) is int for f in ones)
    assert all(type(f.coeffs[(1, 0, 2)]) is Fraction for f in halves)
    assert mono(1, 0, HALF_U).coeffs[(0, 1, 0)] == HALF_U


def test_a_float_coefficient_is_made_exact():
    assert exact(0.5) == Fraction(1, 2) and type(exact(2.0)) is int
    assert mono(1, 0).scale(0.5) == mono(1, 0, Fraction(1, 2))


@pytest.mark.parametrize("c", ["1/2", None, RatFunc([0, 1]), float("nan"), float("inf")],
                         ids=["str", "None", "RatFunc", "nan", "inf"])
def test_a_coefficient_outside_the_tower_is_a_quantize_error(c):
    with pytest.raises(QuantizeError, match="is not an int, Fraction, finite float"):
        exact(c)
    with pytest.raises(QuantizeError, match="is not an int, Fraction, finite float"):
        TPoly({(0, 1, 0): c})


def test_a_negative_degree_is_a_quantize_error():
    for xdeg, pdeg in ((-1, 0), (0, -1)):
        with pytest.raises(QuantizeError, match="negative degree"):
            TPoly.monomial(xdeg, pdeg)


# -- the worked star product --------------------------------------------------------

def test_moyal_component_zero_is_plain_product():
    s = moyal_star(4)
    x, p = mono(1, 0), mono(0, 1)
    assert s.component(0, x, p) == x * p
    assert s.commutative_mod_t(3)


def test_moyal_star_example_values():
    s = moyal_star(4)
    x, p = mono(1, 0), mono(0, 1)
    # x * p = xp ; p * x = xp + t
    assert s(x, p).eq_mod(x * p, 4)
    assert s(p, x).eq_mod(x * p + mono(0, 0).times_t(), 4)
    # p^2 star x^2: two derivative orders contribute
    lhs = s(mono(0, 2), mono(2, 0))
    expect = (mono(2, 2) + mono(1, 1, 4).times_t(1)
              + mono(0, 0, 2).times_t(2))
    assert lhs.eq_mod(expect, 4)


def test_moyal_associative():
    s = moyal_star(4)
    assert s.is_associative(3)


def test_classical_limit_is_poisson():
    s = moyal_star(3)
    dot0, br0 = classical_limit(s)
    assert satisfies(POISSON, (dot0, br0), 3, 1) == (True, None)
    # the first-order bracket is the standard directional Poisson bracket
    x, p = mono(1, 0), mono(0, 1)
    assert br0(x, p) == mono(0, 0, -1)
    assert br0(p, x) == mono(0, 0, 1)
    f, g = mono(2, 1), mono(1, 1)
    direct = f.dp() * g.dx() - g.dp() * f.dx()
    assert br0(f, g) == direct


def test_poisson_check_rejects_broken_axioms():
    dot0, br0 = classical_limit(moyal_star(3))
    # a bracket whose {x, p} coefficient is corrupted breaks the Leibniz rule
    bad = LLData(1, dot0, br0).mutate_bracket((1, 0), (0, 1), (0, 0, 0), 1)
    ok, failure = satisfies(POISSON, (dot0, bad.br), 2, 1)
    assert not ok and failure.startswith("b(x,c(y,z)) - c(b(x,y),z) - c(y,b(x,z)) fails on (")
    # a symmetric bracket, and a product that is not commutative
    assert satisfies(POISSON, (dot0, dot0), 2, 1) == (
        False, "b is not antisymmetric on ((1)*1, (1)*1)")
    assert satisfies(POISSON, (lambda u, v: u * v.dx(), br0), 2, 1) == (
        False, "c is not symmetric on ((1)*1, (1)*x)")


def test_polarize_star_requires_commutativity():
    def rule(u, v):
        # p-weighted asymmetric order-zero term
        return u * v + u.dx() * v
    s = StarProduct(3, rule, name="lopsided")
    with pytest.raises(QuantizeError):
        polarize_star(s)


def test_polarize_star_bracket_precision_follows_the_rule():
    # an exact rule gives an exact bracket, whatever the product is named
    assert polarize_star(moyal_star(4)).bracket_order == 4
    copy = StarProduct(4, moyal_star(4).rule, name="copy")
    assert polarize_star(copy).bracket_order == 4
    # a rule trusted mod t^4 gives a bracket trusted mod t^3 only
    truncated = star_from_LL(polarize_star(moyal_star(4)), check=False)
    named = StarProduct(4, truncated.rule, name="moyal")
    assert polarize_star(named).bracket_order == 3


def test_polarized_bracket_reduces_to_poisson():
    s = moyal_star(4)
    data = polarize_star(s)
    x, p = mono(1, 0), mono(0, 1)
    # {x, p} = -1/sqrt(2) at order zero in t
    assert data.br(x, p).t_component(0) == mono(0, 0) * (-HALF_U)
    f, g = mono(1, 1), mono(0, 2)
    classical = (f.dp() * g.dx() - g.dp() * f.dx()) * HALF_U
    assert data.br(f, g).t_component(0) == classical
    assert satisfies(SYMMETRIES, data.ops, 2, data.order) == (True, None)


def test_check_ll_moyal_small():
    data = polarize_star(moyal_star(3))
    ok, failure = check_LL(data, degree=2)
    assert ok and failure is None


def test_check_ll_refuses_an_axiom_it_cannot_check():
    # at order 1 the product is known only mod t, so each distributive term
    # holds a bracket of a product trusted mod t^0; at order 2, mod t
    with pytest.raises(QuantizeError, match=r"^distributive axiom is trusted "
                                            r"only mod t\^0 at order 1$"):
        check_LL(polarize_star(moyal_star(1)))
    assert check_LL(polarize_star(moyal_star(2)), degree=2) == (True, None)


def test_check_ll_zero_bracket_case():
    # an exactly associative commutative product with zero bracket passes
    def dot(u, v):
        return u * v

    def br(u, v):
        return TPoly()

    data = LLData(3, dot, br, name="trivial")
    ok, _ = check_LL(data, degree=2)
    assert ok


def test_check_ll_reports_the_associator_defect():
    # the symmetric Moyal product is associative only up to t^2 {y, {x, z}}
    data = polarize_star(moyal_star(4))
    zero = LLData(data.order, data.ops[0], lambda u, v: TPoly())
    ok, failure = check_LL(zero, degree=2)
    assert not ok and failure.startswith("associator-defect fails on (")


def test_star_from_ll_trivial_bracket():
    def dot(u, v):
        return u * v

    def br(u, v):
        return TPoly()

    data = LLData(3, dot, br, name="trivial")
    s = star_from_LL(data, check=False)
    x, p = mono(1, 0), mono(0, 1)
    assert s(x, p).eq_mod((x * p) * HALF_U, 3)
    # a scalar multiple of an associative product is associative
    assert s.is_associative(2)


def test_roundtrip_polarize_then_assemble():
    s = moyal_star(4)
    data = polarize_star(s)
    s2 = star_from_LL(data, check=False)
    for u in basis_monomials(3):
        for v in basis_monomials(3):
            assert s2.rule(u, v).eq_mod(s.rule(u, v), 4)


def test_roundtrip_assemble_then_polarize():
    s = moyal_star(4)
    data = polarize_star(s)
    data2 = polarize_star(star_from_LL(data, check=False))
    for u in basis_monomials(2):
        for v in basis_monomials(2):
            assert data2.dot(u, v).eq_mod(data.dot(u, v), 4)
            assert data2.br(u, v).eq_mod(data.br(u, v), 3)


def test_star_from_ll_validates_input():
    data = polarize_star(moyal_star(3))
    bad = data.mutate_bracket((1, 0), (0, 1), (0, 0, 0), 1)
    with pytest.raises(QuantizeError):
        star_from_LL(bad, degree=2)


def test_mutation_flips_verdict():
    data = polarize_star(moyal_star(3))
    ok, _ = check_LL(data, degree=2)
    assert ok
    for m1, m2, out in (((1, 0), (0, 1), (0, 0, 0)),
                        ((1, 0), (0, 1), (0, 1, 1)),
                        ((2, 0), (0, 1), (0, 1, 0))):
        bad = data.mutate_bracket(m1, m2, out, Fraction(1, 2))
        assert satisfies(SYMMETRIES, bad.ops, 1, bad.order) == (True, None)
        ok2, failure = check_LL(bad, degree=2)
        assert not ok2 and failure


def test_a_mutated_bracket_is_bilinear_over_q_of_t():
    t = mono(0, 0).times_t()
    zero = LLData(4, POLARIZED.ops[0], lambda u, v: TPoly())
    for base, m1, m2 in ((zero, (1, 0), (0, 1)), (POLARIZED, (1, 0), (0, 1)),
                         (POLARIZED, (2, 0), (1, 1))):
        bad = base.mutate_bracket(m1, m2, (0, 1, 0), Fraction(1, 2))
        for u, v in itertools.product(basis_monomials(2), repeat=2):
            want = bad.br(u, v).times_t()
            assert bad.br(t * u, v) == want == bad.br(u, t * v)
    # the bump of t x, p is t times the bump of x, p
    bad = zero.mutate_bracket((1, 0), (0, 1), (0, 1, 0), 2)
    assert bad.br(t * mono(1, 0), mono(0, 1)) == mono(1, 0, 2).times_t()
    assert bad.br(mono(0, 1), t * mono(1, 0)) == mono(1, 0, -2).times_t()


def test_component_index_out_of_range():
    s = moyal_star(3)
    basis = basis_monomials(1)
    with pytest.raises(QuantizeError):
        s.component(5, basis[0], basis[1])


def test_random_triple_associativity_of_assembled_star():
    rng = random.Random(20240813)
    s = moyal_star(4)
    data = polarize_star(s)
    s2 = star_from_LL(data, check=False)
    basis = basis_monomials(3)

    def rand_elt():
        out = TPoly()
        for _ in range(3):
            out = out + basis[rng.randrange(len(basis))] * Fraction(rng.randint(-2, 2))
        return out

    for _ in range(20):
        u, v, w = rand_elt(), rand_elt(), rand_elt()
        assert associativity_defect(s2, u, v, w).is_zero_mod(4)


# -- the pair table ------------------------------------------------------------------

def test_pair_table_is_filled_once_per_instance():
    calls = []
    moyal = moyal_star(4).rule

    def rule(u, v):
        calls.append((u, v))
        return moyal(u, v)

    s = StarProduct(4, rule)
    assert s.is_associative(2)
    first = len(calls)
    # each pair once, and the constant pair once more for `precision`
    assert first == len(set(calls)) + 1
    assert s.is_associative(2) and len(calls) == first
    assert StarProduct(4, rule).is_associative(2) and len(calls) == 2 * first
    # the polarized dot and br read rule(m1, m2) and rule(m2, m1) off the
    # pair table and call the rule no more
    data = polarize_star(StarProduct(4, rule))
    for u, v in itertools.product(basis_monomials(3), repeat=2):
        data.dot(u, v), data.br(u, v)
    fresh = calls[2 * first:]
    assert len(fresh) == len(set(fresh)) + 1
    for u, v in itertools.product(basis_monomials(3), repeat=2):
        data.dot(u, v), data.br(u, v)
    assert len(calls) == 2 * first + len(fresh)


def test_pair_with_another_order_is_rejected():
    moyal = moyal_star(4).rule

    def rule(u, v):
        # trusted mod t^4 everywhere except on the pair (x, p)
        odd = (0, 1, 0) in u.coeffs and (0, 0, 1) in v.coeffs
        return TPoly(moyal(u, v).coeffs, 3 if odd else 4)

    s = StarProduct(4, rule, name="uneven")
    assert s.expand(mono(1, 0), mono(1, 0)).order == 4
    with pytest.raises(QuantizeError, match=r"order 3 on x\^1 p\^0, x\^0 p\^1 "
                                            r"but order 4 on 1, 1"):
        s.expand(mono(1, 0), mono(0, 1))


def test_a_component_above_the_trusted_order_is_refused():
    s, x = moyal_star(4), mono(1, 0)
    # p * x = xp + t: component 1 is 1 for an exact p, unknown for p mod t
    assert s.component(1, mono(0, 1), x) == mono(0, 0)
    assert s.component(0, TPoly({(0, 0, 1): 1}, 1), x) == x * mono(0, 1)
    with pytest.raises(QuantizeError, match=r"^moyal: component 1 of a product "
                                            r"trusted only mod t\^1$"):
        s.component(1, TPoly({(0, 0, 1): 1}, 1), x)


small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
nonzero = small.filter(bool)
EXPONENTS = [(i, j) for i in range(4) for j in range(4 - i)]
# (t, x, p) exponents with t <= 2 and x + p <= 3
keys = st.builds(lambda k, ij: (k,) + ij, st.integers(0, 2), st.sampled_from(EXPONENTS))


@st.composite
def tpolys(draw):
    """Rational and u-plane coefficients, exact or trusted modulo t^1 .. t^5."""
    coeff = st.one_of(small, small.map(lambda f: U * f))
    terms = draw(st.dictionaries(keys, coeff, max_size=4))
    return TPoly(terms, draw(st.one_of(st.none(), st.integers(1, 5))))


@pytest.mark.parametrize("make", [
    lambda: moyal_star(4),
    lambda: star_from_LL(polarize_star(moyal_star(4)), check=False),
], ids=["moyal", "assembled"])
@settings(max_examples=40, deadline=None)
@given(u=tpolys(), v=tpolys())
def test_table_expansion_equals_the_rule(make, u, v):
    s = make()
    direct = s.rule(u, v)
    for twist in (0, 1, -1):
        want = direct + s.rule(v, u).scale(twist) if twist else direct
        got = s.expand(u, v, twist=twist)
        assert (got.coeffs, got.order) == (want.coeffs, want.order)
        assert ({k: type(c) for k, c in got.coeffs.items()}
                == {k: type(c) for k, c in want.coeffs.items()})
    assert s(u, v) == direct.truncated(s.order)
    for k in range(s.order):
        # direct.order is the least of u's, v's and the rule's
        if direct.order is not None and k >= direct.order:
            with pytest.raises(QuantizeError, match=rf"component {k} of a product "
                                                    rf"trusted only mod t\^{direct.order}$"):
                s.component(k, u, v)
        else:
            assert s.component(k, u, v) == direct.t_component(k)


def test_expand_takes_only_the_twists_0_and_plus_minus_1():
    s = moyal_star(4)
    x, p, t = mono(1, 0), mono(0, 1), mono(0, 0).times_t()
    assert s.expand(p, x, twist=1) == mono(1, 1, 2) + t
    assert s.expand(p, x, twist=-1) == t
    # sqrt 2 * sqrt 2 is stored as the int 2
    w = s.expand(mono(0, 1, U), mono(1, 0, U), twist=1)
    assert w.coeffs == {(0, 1, 1): 4, (1, 0, 0): 2}
    assert all(type(c) is int for c in w.coeffs.values())
    for twist in (2, -2, Fraction(1, 2), "1", [1]):
        with pytest.raises(QuantizeError, match=r"^twist .* is not 0, 1 or -1$"):
            s.expand(p, x, twist=twist)


POLARIZED = polarize_star(moyal_star(4))
tower_factors = st.one_of(
    nonzero, nonzero.map(lambda f: U * f),
    st.builds(lambda a, b: a + Scalar.v() * b, small, nonzero),
    st.builds(lambda a, b: a + Scalar.q() * b, small, nonzero))
degree2 = st.sampled_from([(i, j) for i in range(3) for j in range(3 - i)])
mutations = st.tuples(degree2, degree2, keys, tower_factors)


@settings(max_examples=25, deadline=None)
@given(c=tower_factors, mutation=st.one_of(st.none(), mutations))
def test_check_ll_ignores_a_common_factor(c, mutation):
    """Scaling both operations by c != 0 scales every defect by c^2."""
    data = POLARIZED if mutation is None else POLARIZED.mutate_bracket(*mutation)
    scaled = LLData(data.order, lambda u, v: data.dot(u, v).scale(c),
                    lambda u, v: data.br(u, v).scale(c))
    assert check_LL(scaled, degree=2) == check_LL(data, degree=2)


# -- the axiom checks against a plain reference -------------------------------------

def reference_check_ll(data, degree):
    """Every triple, and the three axioms as `check_LL`'s docstring writes
    them, each defect built as a TPoly."""
    dot, br = data.ops
    n_br = min(data.order, data.bracket_order)
    moduli = {"jacobi": n_br, "distributive": n_br,
              "associator-defect": min(data.order, n_br + 2)}
    for x, y, z in itertools.product(basis_monomials(degree), repeat=3):
        for axiom, defect in (
                ("jacobi", br(x, br(y, z)) + br(y, br(z, x)) + br(z, br(x, y))),
                ("distributive", br(x, dot(y, z)) - dot(br(x, y), z) - dot(y, br(x, z))),
                ("associator-defect",
                 dot(dot(x, y), z) - dot(x, dot(y, z)) - br(y, br(x, z)).times_t(2))):
            if not defect.is_zero_mod(moduli[axiom]):
                return False, f"{axiom} fails on ({x.render()}, {y.render()}, {z.render()})"
    return True, None


# a product bent at t^2 and a bracket whose values are trusted mod t^2,
# below its declared order: the associator terms t^2 {y, {x, z}} are
# trusted mod t^3, so the bend shows there and not in the distributive law
BENT = LLData(4, lambda u, v: POLARIZED.dot(u, v) + (u.dx().dx() * v.dx().dx()).times_t(2),
              lambda u, v: POLARIZED.br(u, v).truncated(2))


@pytest.mark.parametrize("data, degree", [
    (POLARIZED, 3),
    (polarize_star(moyal_star(5)), 4),
    (POLARIZED.mutate_bracket((1, 0), (0, 1), (0, 0, 0), 1), 2),
    (BENT, 2),
    (BENT, 3),
    (polarize_star(moyal_star(3)), 4),
], ids=["moyal4", "moyal5", "mutated", "bent", "bent-degree3", "moyal3-degree4"])
def test_check_ll_equals_the_reference(data, degree):
    assert check_LL(data, degree) == reference_check_ll(data, degree)
    if data is BENT:
        assert check_LL(data, degree)[1].startswith("associator-defect fails on (")


@settings(max_examples=25, deadline=None)
@given(mutation=mutations)
def test_check_ll_equals_the_reference_on_corruptions(mutation):
    data = POLARIZED.mutate_bracket(*mutation)
    assert check_LL(data, 2) == reference_check_ll(data, 2)


def test_is_associative_equals_the_defect_of_every_triple():
    mutated = POLARIZED.mutate_bracket((1, 0), (0, 1), (0, 0, 1), Fraction(1, 2))
    basis, verdicts = basis_monomials(2), []
    for s in (moyal_star(4), star_from_LL(mutated, check=False)):
        verdicts.append(all(associativity_defect(s, u, v, w).is_zero_mod(s.order)
                            for u, v, w in itertools.product(basis, repeat=3)))
        assert s.is_associative(2) == verdicts[-1]
    assert verdicts == [True, False]


# -- satisfies: the written relations of a presentation ------------------------------

def counted(op, calls):
    def wrapped(u, v):
        calls.append((u, v))
        return op(u, v)
    return wrapped


def is_unit_monomial(u):
    (k, _, _), c = next(iter(u.coeffs.items()))
    return u.order is None and len(u.coeffs) == 1 and k == 0 and c == 1


@pytest.mark.parametrize("p, ops, degree, order", [
    (builtin("LLq"), POLARIZED.ops, 3, 4),
    (builtin("LLq"), BENT.ops, 2, 4),
    (builtin("LLq"), POLARIZED.mutate_bracket((1, 0), (0, 1), (0, 0, 0), 1).ops, 2, 4),
    (builtin("Ass"), (moyal_star(4),), 3, 4),
    (builtin("free_comm"), (functools.partial(moyal_star(4).component, 0),), 3, 1),
    (POISSON, classical_limit(moyal_star(3)), 3, 1),
], ids=["llq", "bent", "mutated", "ass", "free_comm", "poisson"])
def test_satisfies_calls_each_operation_once_per_monomial_pair(p, ops, degree, order):
    calls = [[] for _ in ops]
    got = satisfies(p, [counted(op, c) for op, c in zip(ops, calls)], degree, order)
    assert got == satisfies(p, ops, degree, order)
    for c in calls:
        pairs = [(u, v) for u, v in c if u.coeffs and v.coeffs]
        assert all(is_unit_monomial(u) and is_unit_monomial(v) for u, v in pairs)
        assert len(set(pairs)) == len(pairs) >= len(basis_monomials(degree)) ** 2
        # the rest are zeros, one per order an inner value has and side, against 1
        probes = [(u, v) for u, v in c if not u.coeffs or not v.coeffs]
        assert all(mono(0, 0) in (u, v) for u, v in probes)
        assert len(set(probes)) == len(probes)


def test_the_stabilisers_are_derived_from_the_relations():
    # as permutations of the triple positions (x, y, z)
    everything = {(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)}
    jacobi, distributive, associator = (set(stab) for _, stab in _compiled(builtin("LLq")))
    assert jacobi == everything
    assert distributive == {(0, 1, 2), (0, 2, 1)}
    assert associator == {(0, 1, 2), (2, 1, 0)}
    assert [set(stab) for _, stab in _compiled(builtin("Ass"))] == [{(0, 1, 2)}]


def test_the_polarized_product_is_llq_and_not_llinf_or_poisson():
    # q = t^2: the associator is t^2 {y, {x, z}}, zero in LLinf and Poisson
    data = POLARIZED
    assert satisfies(builtin("LLq"), data.ops, 3, data.order) == (True, None)
    for name, relation in (("LLinf", "b(y,b(x,z))"),
                           ("Poiss_polarized", "c(c(x,y),z) - c(x,c(y,z))")):
        assert satisfies(builtin(name), data.ops, 3, data.order) == (
            False, f"{relation} fails on ((1)*p, (1)*p, (1)*x^2)")


def test_a_coefficient_outside_q_of_q_is_refused():
    with pytest.raises(QuantizeError, match=r"^LLq_depolarized: coefficient .* "
                                            r"is not in Q\[q\]$"):
        satisfies(builtin("LLq_depolarized"), (moyal_star(4),), 1, 4)


def test_an_operation_whose_order_varies_by_pair_is_refused():
    dot, br = POLARIZED.ops

    def uneven(u, v):
        # the polarized bracket, trusted only mod t on the pair (p^2, x^2)
        w = br(u, v)
        return w.truncated(1) if (0, 0, 2) in u.coeffs and (0, 2, 0) in v.coeffs else w

    with pytest.raises(QuantizeError, match=r"^b reports order 1 on x\^0 p\^2, x\^2 p\^0 "
                                            r"but exact on 1, 1$"):
        check_LL(LLData(4, dot, uneven), 2)


def test_a_rule_whose_order_varies_by_pair_is_refused():
    rule = moyal_star(4).rule       # exact on every pair

    def uneven(u, v):   # trusted only mod t^2 on the pair (p^2, x^2)
        w = rule(u, v)
        return w.truncated(2) if (0, 0, 2) in u.coeffs and (0, 2, 0) in v.coeffs else w

    with pytest.raises(QuantizeError, match=r"^uneven: the rule reports order 2 on "
                                            r"x\^0 p\^2, x\^2 p\^0 but exact on 1, 1$"):
        StarProduct(4, uneven, name="uneven")(mono(0, 2), mono(2, 0))

    def cut(u, v):      # trusted only mod t^3 everywhere but on the pair (x, x)
        w = rule(u, v)
        return w if (0, 1, 0) in u.coeffs and (0, 1, 0) in v.coeffs else w.truncated(3)

    with pytest.raises(QuantizeError, match=r"^cut: the rule reports exact on "
                                            r"x\^1 p\^0, x\^1 p\^0 but order 3 on 1, 1$"):
        StarProduct(4, cut, name="cut")(mono(1, 0), mono(1, 0))


def test_one_operation_per_generator():
    with pytest.raises(QuantizeError, match="^LLq has 2 generators but 1 "
                                            "operations were given$"):
        satisfies(builtin("LLq"), POLARIZED.ops[:1], 1, 4)
    # and one name per written relation
    with pytest.raises(ValueError):
        satisfies(builtin("LLq"), POLARIZED.ops, 1, 4, ("jacobi",))


def test_a_non_symmetric_product_gets_a_symmetry_failure():
    lopsided = LLData(4, lambda u, v: u * v + u.dx() * v, POLARIZED.ops[1])
    assert check_LL(lopsided, 2) == (False, "c is not symmetric on ((1)*1, (1)*x)")
