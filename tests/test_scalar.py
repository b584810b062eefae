from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from operadlab.scalar import (Scalar, RatFunc, ScalarError, SpecializationError,
                              RESIDUE_P, RESIDUE_V0)


def S(x):
    return Scalar.from_fraction(x)


U = Scalar.u()
V = Scalar.v()
Q = Scalar.q()


# -- strategies --------------------------------------------------------------

small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=3)


# constants with numerators and denominators far beyond one machine word
big_fracs = st.builds(Fraction, st.integers(-10**30, 10**30),
                      st.integers(1, 10**30))


@st.composite
def polynomial_ratfuncs(draw):
    num = draw(st.lists(small_fracs, min_size=0, max_size=2))
    den = draw(st.lists(small_fracs, min_size=0, max_size=1))
    den = den + [Fraction(1)]  # never the zero polynomial
    return RatFunc(num, den)


# constants, small and large (the arithmetic's fast path), and functions of q
ratfuncs = st.one_of(polynomial_ratfuncs(),
                     big_fracs.map(lambda a: RatFunc([a])),
                     small_fracs.map(lambda a: RatFunc([a])))


@st.composite
def scalars(draw):
    """Elements of Q(q), of the u-plane Q(q)(u) and of the whole tower,
    with equal weight: the arithmetic has a fast path for the first two."""
    parts = draw(st.sampled_from((1, 2, 4)))    # c00; c00 + c10 u; all four
    return Scalar(*(draw(ratfuncs) for _ in range(parts)))


# -- basic arithmetic ---------------------------------------------------------

def test_u_squared_is_two():
    assert U * U == S(2)
    assert (S(1) + U) * (S(1) - U) == S(-1)


def test_v_squared_is_q():
    assert V * V == Q


def test_div_one_by_v():
    # 1/v = v/q
    assert S(1) / V == V / Q


def test_polarization_normalization():
    half_u = U * Fraction(1, 2)
    assert half_u * half_u * S(2) == S(1)


def test_division_by_zero():
    with pytest.raises(ScalarError):
        S(1) / Scalar.zero()


@settings(max_examples=200, deadline=None)
@given(scalars())
def test_inverse_on_random_nonzero(a):
    if a.is_zero():
        return
    assert a * a.inverse() == Scalar.one()


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars())
def test_canonical_representation(a, b):
    # equal values have identical stored representations
    if a == b:
        assert a.c == b.c and hash(a) == hash(b)
    s = a - b
    if s.is_zero():
        assert s == Scalar.zero() and s.c == Scalar.zero().c


# -- the constant and Q(q) fast paths ------------------------------------------

def _check_constant_ops(x, y):
    # every result equals the general constructor's canonical form
    a, b = RatFunc([x]), RatFunc([y])
    results = {"+": (a + b, x + y), "-": (a - b, x - y), "*": (a * b, x * y),
               "neg": (-a, -x), "+int": (a + 3, x + 3), "*Fraction": (a * y, x * y)}
    if y:
        results["/"] = (a / b, x / y)
    for op, (got, want) in results.items():
        ref = RatFunc([want])
        assert (got.num, got.den) == (ref.num, ref.den), op


@pytest.mark.parametrize("x, y", [
    (Fraction(1, 3), Fraction(-1, 3)),          # sum cancels to zero
    (Fraction(5, 6), Fraction(5, 6)),           # difference cancels to zero
    (Fraction(-7, 4), Fraction(2, 3)),          # negative results
    (Fraction(3, 10), Fraction(-5, 9)),         # the product cancels
    (Fraction(10**25, 3), Fraction(-10**25 + 1, 3)),
    (Fraction(0), Fraction(-2, 7)),
])
def test_constant_arithmetic_examples(x, y):
    _check_constant_ops(x, y)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_constant_arithmetic_is_canonical(data):
    x = data.draw(st.one_of(big_fracs, small_fracs))
    y = data.draw(st.one_of(big_fracs, small_fracs, st.just(x), st.just(-x)))
    _check_constant_ops(x, y)


@settings(max_examples=100, deadline=None)
@given(scalars(), scalars())
def test_zero_tests_agree_on_zeros_reached_by_subtraction(a, b):
    zero = Scalar.zero()
    for z in (a - a, (a + b) - b - a, a * b - b * a, (a - b) + (b - a), -(a - a)):
        assert not z and z.is_zero() and z == zero
        assert z.c == zero.c and hash(z) == hash(zero)
    d = a - b
    assert bool(d) == (not d.is_zero()) == (d != zero) == (a != b)


# -- specialization -----------------------------------------------------------

def test_specialize_square_root():
    assert V.specialize(4) == S(2)
    assert V.specialize(Fraction(9, 4)) == Scalar.from_fraction(Fraction(3, 2))


def test_specialize_rational_function():
    s = (Q - S(1)) / (Q + S(3))
    assert s.specialize(1) == Scalar.zero()
    assert s.specialize(0) == Scalar.from_fraction(Fraction(-1, 3))


def test_specialize_pole():
    s = S(1) / (Q + S(3))
    with pytest.raises(SpecializationError):
        s.specialize(-3)


def test_specialize_irrational_root():
    with pytest.raises(SpecializationError):
        V.specialize(2)
    # without v-components no square root is demanded
    assert (U * Q).specialize(2) == U * S(2)


# -- rendering ----------------------------------------------------------------

def test_render_examples():
    s = (Q - S(1)) / (Q + S(3)) + U * Fraction(1, 2)
    assert s.render() == "(q - 1)/(q + 3) + (1/2)*u"
    assert Scalar.zero().render() == "0"
    assert (U * V).render() == "u*v"



def test_render_divides_by_the_leading_denominator_coefficient():
    assert RatFunc([-1, 1], [6, 2]).render() == "(1/2*q - 1/2)/(q + 3)"
    assert (RatFunc([Fraction(1, 3), 0, Fraction(-2, 5)],
                    [Fraction(1, 2), Fraction(3, 4)]).render()
            == "(-8/15*q^2 + 4/9)/(q + 2/3)")
    s = (Q - S(1)) / (S(2) * Q + S(6)) + U * V * Fraction(3, 7) - V / (Q * Q + S(1))
    assert s.render() == "(1/2*q - 1/2)/(q + 3) + ((-1)/(q^2 + 1))*v + (3/7)*u*v"


def test_specialize_pole_of_a_denominator_with_content():
    s = Scalar(RatFunc([1], [6, 2]))   # 1/(2q + 6)
    assert s.specialize(0) == S(Fraction(1, 6))
    with pytest.raises(SpecializationError):
        s.specialize(-3)


# -- the residue map to Z/P -----------------------------------------------------

P = RESIDUE_P


def test_residues_of_the_generators():
    u, v, q = U.residue(), V.residue(), Q.residue()
    assert u * u % P == 2
    assert v * v % P == q
    assert v == RESIDUE_V0 and q == RESIDUE_V0 ** 2 % P
    assert S(Fraction(-2, 3)).residue() * 3 % P == P - 2
    assert Scalar.zero().residue() == 0


def test_residue_is_none_at_a_pole():
    at_point = RatFunc([-RESIDUE_V0 ** 2, 1])            # q - V0^2
    assert Scalar(at_point).residue() == 0
    assert Scalar(1 / at_point).residue() is None
    assert Scalar(1, 1, 0, 1 / at_point).residue() is None


@settings(max_examples=150, deadline=None)
@given(scalars(), scalars())
def test_residue_is_a_ring_homomorphism(a, b):
    ra, rb = a.residue(), b.residue()
    for value, want in ((a + b, lambda: (ra + rb) % P),
                        (a - b, lambda: (ra - rb) % P),
                        (a * b, lambda: ra * rb % P),
                        (-a, lambda: -ra % P)):
        got = value.residue()
        if ra is not None and rb is not None and got is not None:
            assert got == want()
    if a and ra is not None:
        inv = a.inverse().residue()
        if inv is not None:
            assert ra * inv % P == 1
