from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from operadlab.scalar import (SC0, SC1, Scalar, RatFunc, ScalarError, SpecializationError,
                              RESIDUE_P, RESIDUE_V0, as_scalar, exact, residue)


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
        S(1) / SC0


@settings(max_examples=200, deadline=None)
@given(scalars())
def test_inverse_on_random_nonzero(a):
    if a.is_zero():
        return
    assert a * a.inverse() == SC1


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
        assert s == SC0 and s.c == SC0.c


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
    zero = SC0
    for z in (a - a, (a + b) - b - a, a * b - b * a, (a - b) + (b - a), -(a - a)):
        assert not z and z.is_zero() and z == zero
        assert z.c == zero.c and hash(z) == hash(zero)
    d = a - b
    assert bool(d) == (not d.is_zero()) == (d != zero) == (a != b)


def _forms(x):
    """x as a Scalar and in each narrower type, of RatFunc, Fraction and
    int, that holds its value."""
    s = as_scalar(x)
    forms = [s]
    if not (s.c[1] or s.c[2] or s.c[3]):
        forms.append(s.c[0])
        if s.c[0].is_constant():
            f = s.as_fraction()
            forms += [f, f.numerator] if f.denominator == 1 else [f]
    return forms


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.integers(-10**30, 10**30), st.booleans(), small_fracs,
                 big_fracs, ratfuncs))
def test_as_scalar_takes_the_numbers_below_the_tower(x):
    s = as_scalar(x)
    want = Scalar(x) if isinstance(x, RatFunc) else Scalar(RatFunc([x]))
    assert type(s) is Scalar and s == want and hash(s) == hash(want)
    assert s.c == want.c and s.c[1:] == (RatFunc([0]),) * 3
    for r in s.c:
        # canonical: int coefficients, den > 0, and zero is ((), (1,))
        assert all(type(a) is int for a in r.num + r.den) and r.den[-1] > 0
        assert r.num or r.den == (1,)


def test_as_scalar_refuses_other_types():
    for x in (0.5, 1.0, "1", None):
        assert as_scalar(x) is NotImplemented
    assert as_scalar(U) is U


def test_equal_tower_values_collapse_in_a_set():
    assert len({SC1, 1, Fraction(1), RatFunc([1])}) == 1


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_fracs, big_fracs, st.integers(-5, 5), ratfuncs, scalars()),
       st.one_of(small_fracs, ratfuncs, scalars()))
def test_equal_values_hash_equally(x, y):
    forms = _forms(x) + _forms(y)
    for a in forms:
        for b in forms:
            if a == b:
                assert hash(a) == hash(b), (a, b)


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_fracs, big_fracs, st.integers(-5, 5), ratfuncs, scalars()))
def test_exact_keeps_value_and_hash_in_the_smallest_type(x):
    e, s = exact(x), as_scalar(x)
    assert e == s and hash(e) == hash(s) and residue(e) == s.residue()
    if not s.is_rational():
        assert type(e) is Scalar
    else:
        f = s.as_fraction()
        assert type(e) is (int if f.denominator == 1 else Fraction) and e == f
    assert exact(e) is e
    with pytest.raises(TypeError):
        exact(0.5)


@pytest.mark.parametrize("op", [lambda: 0.5 - SC1, lambda: "x" / SC1,
                                lambda: "x" - RatFunc([0, 1]), lambda: "x" / RatFunc([0, 1]),
                                lambda: RatFunc([0, 1]) - "x"],
                         ids=["float-Scalar", "str/Scalar", "str-RatFunc",
                              "str/RatFunc", "RatFunc-str"])
def test_an_operand_outside_the_tower_is_a_type_error(op):
    with pytest.raises(TypeError, match="unsupported operand"):
        op()


def test_ratfunc_minus_a_rational():
    q = RatFunc([0, 1])
    assert q - 1 == RatFunc([-1, 1]) == -(1 - q)
    assert q - Fraction(1, 2) == RatFunc([Fraction(-1, 2), 1])
    assert 2 / q == RatFunc([2], [0, 1])


# -- specialization -----------------------------------------------------------

def test_specialize_square_root():
    assert V.specialize(4) == S(2)
    assert V.specialize(Fraction(9, 4)) == Scalar.from_fraction(Fraction(3, 2))


def test_specialize_rational_function():
    s = (Q - S(1)) / (Q + S(3))
    assert s.specialize(1) == SC0
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


def test_specialize_negative_root():
    with pytest.raises(SpecializationError):
        V.specialize(-4)


# -- evaluation in integers, against a Fraction Horner and sympy ---------------

big_ints = st.integers(-(2 ** 100), 2 ** 100)
big_polys = st.lists(big_ints, min_size=1, max_size=9)          # degree <= 8

# 0, negative and non-integral points
points = st.one_of(st.just(Fraction(0)),
                   st.builds(lambda n, d: Fraction(-n, d), st.integers(1, 10 ** 6),
                             st.integers(1, 40)),
                   st.builds(lambda n, d: n + Fraction(1, d),
                             st.integers(-10 ** 6, 10 ** 6), st.integers(2, 40)))


@st.composite
def functions_and_points(draw, polys=big_polys):
    """A RatFunc and a point, with a pole there in about a third of the
    draws: the denominator takes the factor (b q - a) of q0 = a/b, which
    survives unless the numerator vanishes at q0 too."""
    q0 = draw(points)
    num = draw(polys)
    den = draw(polys.filter(any))
    if draw(st.integers(0, 2)) == 0:
        den = [0] + den
        den = [x * q0.denominator - y * q0.numerator for x, y in zip(den, den[1:] + [0])]
    return RatFunc(num, den), q0


def horner(coeffs, q0):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * q0 + c
    return acc


def reference_value(r, q0):
    """r(q0) by a Fraction Horner scheme; None at a pole."""
    d = horner(r.den, q0)
    return horner(r.num, q0) / d if d else None


@settings(max_examples=200, deadline=None)
@given(functions_and_points())
def test_evaluate_equals_the_fraction_horner(rq):
    r, q0 = rq
    want = reference_value(r, q0)
    if want is None:
        with pytest.raises(SpecializationError, match=rf"^pole at q = {q0}$"):
            as_scalar(r).specialize(q0)
    else:
        assert as_scalar(r).specialize(q0).as_fraction() == want


@settings(max_examples=60, deadline=None)
@given(functions_and_points())
def test_evaluate_agrees_with_sympy(rq):
    sympy = pytest.importorskip("sympy")
    r, q0 = rq
    t = sympy.Rational(q0.numerator, q0.denominator)
    num = sum(sympy.Integer(c) * t ** k for k, c in enumerate(r.num))
    den = sum(sympy.Integer(c) * t ** k for k, c in enumerate(r.den))
    if den == 0:
        with pytest.raises(SpecializationError):
            as_scalar(r).specialize(q0)
    else:
        value = num / den
        assert as_scalar(r).specialize(q0) == Fraction(int(value.p), int(value.q))


small_polys = st.lists(st.integers(-(2 ** 100), 2 ** 100), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.lists(functions_and_points(small_polys), min_size=4, max_size=4),
       st.sampled_from((0, 1, 2)), points)
def test_scalar_specialize_equals_the_reference(parts, zeros, q0):
    # the four components at one point, some of them zero (and so skipped),
    # the point a rational square in about half of the draws
    if q0 and q0.numerator % 2:
        q0 = q0 * q0
    comps = [r for r, _ in parts]
    for k in range(zeros):
        comps[3 - 2 * k] = RatFunc([0])
    s = Scalar(*comps)
    vals = [reference_value(r, q0) if r else Fraction(0) for r in comps]
    if None in vals:
        with pytest.raises(SpecializationError, match=rf"^pole at q = {q0}$"):
            s.specialize(q0)
        return
    if vals[2] or vals[3]:
        if q0 < 0 or any(isqrt(x) ** 2 != x for x in (q0.numerator, q0.denominator)):
            with pytest.raises(SpecializationError, match="irrational"):
                s.specialize(q0)
            return
        root = Fraction(isqrt(q0.numerator), isqrt(q0.denominator))
        vals = [vals[0] + root * vals[2], vals[1] + root * vals[3]]
    got, want = s.specialize(q0), S(vals[0]) + S(vals[1]) * U
    assert got == want and got.c == want.c and hash(got) == hash(want)
    if not vals[1]:
        assert hash(got) == hash(S(vals[0])) == hash(vals[0])


def test_an_irrational_root_still_raises():
    with pytest.raises(SpecializationError, match=r"^sqrt\(2/9\) is irrational"):
        (V * Q / (Q + S(1))).specialize(Fraction(2, 9))
    assert ((V - V) + Q).specialize(Fraction(2, 9)) == S(Fraction(2, 9))


# -- rendering ----------------------------------------------------------------

def test_render_examples():
    s = (Q - S(1)) / (Q + S(3)) + U * Fraction(1, 2)
    assert s.render() == "(q - 1)/(q + 3) + (1/2)*u"
    assert SC0.render() == "0"
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
    assert SC0.residue() == 0


def test_residue_is_none_at_a_pole():
    at_point = RatFunc([-RESIDUE_V0 ** 2, 1])            # q - V0^2
    assert Scalar(at_point).residue() == 0
    assert Scalar(1 / at_point).residue() is None
    assert Scalar(1, 1, 0, 1 / at_point).residue() is None
    # a rational whose denominator P divides
    assert S(Fraction(3, 2 * P)).residue() is None
    assert S(Fraction(2 * P, 3)).residue() == 0


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
