"""The Hopf solver's verdict against sympy's gcd over QQ.

For rational constraints the common roots of the quadratics in B are
those of their gcd: none when it is constant, the root of a linear gcd
or of the square of one, and undecided for any other quadratic.  Skipped
when sympy is not installed (it is a test-only oracle).
"""

from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from operadlab import Scalar, basis_vector  # noqa: E402
from operadlab.checkers import BPoly, _solve_constraints, _T3  # noqa: E402

B = sympy.Symbol("B")
fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
nonzero = fracs.filter(bool)


def _poly(coeffs):
    """A sympy polynomial over QQ from coefficients, constant term first."""
    return sympy.Poly(list(reversed([sympy.Rational(c.numerator, c.denominator)
                                     for c in coeffs])), B, domain=sympy.QQ)


@st.composite
def factors(draw):
    """A shared factor: a constant, a linear, a square or a quadratic."""
    lin = [draw(fracs), draw(nonzero)]
    kind = draw(st.sampled_from(("const", "linear", "square", "quadratic")))
    if kind == "const":
        return _poly([1])
    if kind == "linear":
        return _poly(lin)
    if kind == "square":
        return _poly(lin) ** 2
    return _poly([draw(fracs), draw(fracs), draw(nonzero)])


@st.composite
def constraint_lists(draw):
    f = draw(factors())
    polys = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):       # a multiple of the shared factor
            k = 2 - f.degree()
            p = f * _poly(draw(st.lists(fracs, min_size=k + 1, max_size=k + 1)))
        else:
            p = _poly(draw(st.lists(fracs, min_size=1, max_size=3)))
        if not p.is_zero:
            polys.append(p)
    return polys or [f]


def _bpoly(p):
    return BPoly([Scalar.from_fraction(Fraction(int(c.p), int(c.q)))
                  for c in reversed(p.all_coeffs())])


@settings(max_examples=80, deadline=None)
@given(constraint_lists())
def test_verdict_matches_the_sympy_gcd(polys):
    row = basis_vector(_T3, 0)
    h = _solve_constraints(_T3, [(_bpoly(p), row) for p in polys])
    g = reduce(sympy.gcd, polys).monic()
    cs = [Fraction(int(c.p), int(c.q)) for c in reversed(g.all_coeffs())]
    if g.degree() == 0:
        assert h.verdict == "none" and h.witness is None
    elif g.degree() == 1:
        assert h.verdict == "unique" and h.witness == Scalar.from_fraction(-cs[0])
    elif cs[1] * cs[1] == 4 * cs[0]:
        assert h.verdict == "unique"
        assert h.witness == Scalar.from_fraction(-cs[1] / 2)
    else:
        assert h.verdict == "undecided" and h.witness is None
