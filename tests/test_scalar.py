from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from operadlab.scalar import Scalar, RatFunc, ScalarError, SpecializationError


def S(x):
    return Scalar.from_fraction(x)


U = Scalar.u()
V = Scalar.v()
Q = Scalar.q()


# -- strategies --------------------------------------------------------------

small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def ratfuncs(draw):
    num = draw(st.lists(small_fracs, min_size=0, max_size=2))
    den = draw(st.lists(small_fracs, min_size=0, max_size=1))
    den = den + [Fraction(1)]  # never the zero polynomial
    return RatFunc(num, den)


@st.composite
def scalars(draw):
    return Scalar(draw(ratfuncs()), draw(ratfuncs()),
                  draw(ratfuncs()), draw(ratfuncs()))


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

