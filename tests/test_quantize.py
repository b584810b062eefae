import itertools
import random
from fractions import Fraction

import pytest

from operadlab import Scalar
from operadlab.quantize import (TPoly, StarProduct, LLData, QuantizeError,
                                moyal_star, polarize_star, star_from_LL,
                                check_LL, classical_limit, poisson_check,
                                basis_monomials)

U = Scalar.u()
HALF_U = U * Fraction(1, 2)


def mono(i, j, c=1):
    return TPoly.monomial(i, j, c)


# -- the polynomial-with-t carrier ------------------------------------------------

def test_tpoly_arithmetic():
    x, p = mono(1, 0), mono(0, 1)
    xp = x * p
    assert xp.coeffs == {(0, 1, 1): Scalar.one()}
    assert (x + p) * (x - p) == x * x - p * p
    assert x.times_t(2).coeffs == {(2, 1, 0): Scalar.one()}
    assert x.times_t().divide_t() == x
    with pytest.raises(QuantizeError):
        x.divide_t()


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
    assert poisson_check(dot0, br0, 3)
    # the first-order bracket is the standard directional Poisson bracket
    x, p = mono(1, 0), mono(0, 1)
    assert br0(x, p) == mono(0, 0, -1)
    assert br0(p, x) == mono(0, 0, 1)
    f, g = mono(2, 1), mono(1, 1)
    direct = f.dp() * g.dx() - g.dp() * f.dx()
    assert br0(f, g) == direct


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
    assert data.validate_symmetry(2)


def test_check_ll_moyal_small():
    data = polarize_star(moyal_star(3))
    ok, failure = check_LL(data, degree=2)
    assert ok and failure is None


def test_check_ll_zero_bracket_case():
    # an exactly associative commutative product with zero bracket passes
    def dot(u, v):
        return u * v

    def br(u, v):
        return TPoly.zero()

    data = LLData(3, dot, br, name="trivial")
    ok, _ = check_LL(data, degree=2)
    assert ok


def test_star_from_ll_trivial_bracket():
    def dot(u, v):
        return u * v

    def br(u, v):
        return TPoly.zero()

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
        assert bad.validate_symmetry(1)
        ok2, failure = check_LL(bad, degree=2)
        assert not ok2 and failure


def test_structure_tensor_view():
    s = moyal_star(3)
    t1 = s.structure_tensor(1, 1)
    basis = basis_monomials(1)  # 1, x, p
    # only (p, x) has a first-order term among degree-1 monomials
    ip = basis.index(mono(0, 1))
    ix = basis.index(mono(1, 0))
    assert set(t1) == {(ip, ix)}
    assert t1[(ip, ix)] == mono(0, 0)
    with pytest.raises(QuantizeError):
        s.component(5, basis[0], basis[1])


def test_random_triple_associativity_of_assembled_star():
    rng = random.Random(20240813)
    s = moyal_star(4)
    data = polarize_star(s)
    s2 = star_from_LL(data, check=False)
    basis = basis_monomials(3)

    def rand_elt():
        out = TPoly.zero()
        for _ in range(3):
            out = out + basis[rng.randrange(len(basis))] * Fraction(rng.randint(-2, 2))
        return out

    for _ in range(20):
        u, v, w = rand_elt(), rand_elt(), rand_elt()
        assert s2.associativity_defect(u, v, w).is_zero_mod(4)
