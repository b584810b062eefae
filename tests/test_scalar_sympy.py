"""Differential test of the coefficient tower against sympy.

Q(q)(sqrt 2, sqrt q) is isomorphic to the field Q(sqrt 2)(t) by
q -> t^2, u -> sqrt 2, v -> t.  An element of Q(sqrt 2)(t) is kept here
as a pair (numerator, denominator) of sympy polynomials in
QQ<sqrt(2)>[t], the ring of `QQ.algebraic_field(sqrt(2)).frac_field(t)`,
without cancelling: equality is a cross-multiplication, so sympy never
takes a gcd over the number field (which takes seconds per element).
Skipped when sympy is not installed (it is a test-only oracle).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from operadlab.scalar import Scalar, RatFunc  # noqa: E402

RING = sympy.QQ.algebraic_field(sympy.sqrt(2)).frac_field(sympy.Symbol("t")).field.ring
T = RING.gens[0]
SQRT2 = RING(RING.domain.from_sympy(sympy.sqrt(2)))
ONE = RING.one


def _k(c):
    return RING(sympy.QQ(c.numerator, c.denominator))


def _poly_in_q(coeffs):
    acc = RING.zero
    for k, c in enumerate(coeffs):
        acc += _k(c) * T ** (2 * k)
    return acc


def add(x, y):
    return (x[0] * y[1] + y[0] * x[1], x[1] * y[1])


def mul(x, y):
    return (x[0] * y[0], x[1] * y[1])


def same(x, y) -> bool:
    return x[0] * y[1] == y[0] * x[1]


def to_sympy(s: Scalar):
    out = (RING.zero, ONE)
    for r, unit in zip(s.c, (ONE, SQRT2, T, SQRT2 * T)):
        out = add(out, (_poly_in_q(r.num) * unit, _poly_in_q(r.den)))
    return out


fracs = st.fractions(min_value=-4, max_value=4, max_denominator=5)
nonzero = fracs.filter(bool)


@st.composite
def ratfuncs(draw):
    # non-monic denominators, non-integer coefficients
    num = draw(st.lists(fracs, max_size=3))
    den = draw(st.lists(fracs, max_size=1)) + [draw(nonzero)]
    return RatFunc(num, den)


@st.composite
def scalars(draw):
    # Q(q), the u-plane and the whole tower with equal weight; the
    # arithmetic has a fast path for the first two
    parts = draw(st.sampled_from((1, 2, 4)))
    comps = st.one_of(ratfuncs(), fracs.map(lambda c: RatFunc([c])))
    return Scalar(*(draw(comps) for _ in range(parts)))


def test_embedding_respects_the_generators():
    q, u, v = Scalar.q(), Scalar.u(), Scalar.v()
    assert same(to_sympy(q), (T ** 2, ONE))
    assert same(to_sympy(u * v), (SQRT2 * T, ONE))
    assert same(to_sympy(u * u), (2 * ONE, ONE))
    assert same(to_sympy(Scalar.from_fraction(Fraction(-3, 7))),
                (_k(Fraction(-3, 7)), ONE))
    assert not same(to_sympy(u), to_sympy(v))


@settings(max_examples=50, deadline=None)
@given(scalars(), scalars())
def test_tower_agrees_with_sympy(a, b):
    A, B = to_sympy(a), to_sympy(b)
    assert same(to_sympy(a + b), add(A, B))
    assert same(to_sympy(a - b), add(A, (-B[0], B[1])))
    assert same(to_sympy(-a), (-A[0], A[1]))
    assert same(to_sympy(a * b), mul(A, B))
    assert (a == b) == same(A, B)
    # one value reached by two routes: equal in both fields
    left, right = a * b + a, a * (b + 1)
    assert left == right and same(to_sympy(left), to_sympy(right))
    if a:
        assert same(to_sympy(a.inverse()), (A[1], A[0]))
