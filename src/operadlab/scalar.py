"""Exact coefficient arithmetic for the whole package.

Every coefficient lives in the field tower

    Q  <  Q(q)  <  Q(q)[u, v] / (u^2 - 2, v^2 - q),

i.e. rational functions of a formal parameter q, extended by u = sqrt(2)
and v = sqrt(q).  The tower is a genuine field (q is an indeterminate,
so u and v generate a degree-four extension), hence every nonzero
element is invertible; the inverse is the product of the three Galois
conjugates over Q(q) divided by the norm.  All values are immutable and
normalised on construction, so equality is plain structural equality and
elements can be used as dict keys.  Immutability is the `Frozen` base
class, which every slotted value class of the package inherits: it
refuses assignment to a field, and copy, deepcopy and pickle restore the
slots through it.

A rational function is a pair of integer polynomials num/den in Z[q],
dense coefficient tuples with the constant term first: den has a positive
leading coefficient, num and den are coprime, and no integer > 1 divides
every coefficient of both.  A polynomial gcd (over Z[q], by primitive
pseudo-remainders) is taken only when a denominator has positive degree.
`padd` and `pmul` are the dense-polynomial core shared with
`checkers.BPoly`; they work over any ring whose elements support ``+``,
``*`` and truth testing.

Most coefficients are plain rationals or lie in Q(q), so the arithmetic
returns early for them, inside the same methods: `RatFunc` sums,
differences and products of two constants (num of length <= 1, den of
length 1) are one integer cross product cancelled by one `math.gcd`, and
`Scalar` sums, differences, products and inverses of elements without a
u, v or uv part work on the first component alone.  The early returns
build exactly the canonical values of the general code (den > 0, gcd 1,
zero is num = ()), so equality stays structural and nothing downstream
can tell the paths apart.  A `RatFunc` difference is the sum with the
operand's numerator negated (`_sum`), with no negated `RatFunc` built.

`TPoly`, free3's vectors and echelon rows and `BPoly` keep coefficients
in their smallest exact type, `exact(c)`: an int, a non-integral Fraction
or a non-rational Scalar.  A rational Scalar compares and hashes like the
equal int or Fraction, and `residue` maps all three types to Z/P.
Relation expressions, rendering and results stay Scalar.

Rendering divides through by the leading coefficient of the denominator
and writes `u` for sqrt(2) and `v` for sqrt(q), e.g.
``(q - 1)/(q + 3) + (1/2)*u``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, isqrt, lcm


class ScalarError(ArithmeticError):
    """Arithmetic failure in the coefficient tower (e.g. division by zero)."""


class SpecializationError(ScalarError):
    """q ↦ q0 substitution hit a pole or an irrational square root."""


class PrintLimitError(ScalarError):
    """A coefficient has more decimal digits than `str` writes."""


# ---------------------------------------------------------------------------
# dense polynomials, represented as coefficient tuples
# ---------------------------------------------------------------------------

_P1 = (1,)


def _trim(cs):
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])


def padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return _trim(out)


def pmul(a, b):
    """Product over a commutative integral domain, so the leading term
    never cancels."""
    if not a or not b:
        return ()
    if len(a) < len(b):
        a, b = b, a
    y = b[0]
    out = [x * y if x else x for x in a]
    last = len(a) - 1
    for j in range(1, len(b)):
        y = b[j]
        if y:
            for i in range(last):
                x = a[i]
                if x:
                    out[i + j] = out[i + j] + x * y
        out.append(a[last] * y)
    return tuple(out)


def _primitive(p):
    """An integer polynomial divided by its content, with a positive lead."""
    c = gcd(*p)
    if p[-1] < 0:
        c = -c
    return p if c == 1 else tuple(x // c for x in p)


def _prem(a, b):
    """Pseudo-remainder of a by b in Z[q], for len(a) >= len(b)."""
    a = list(a)
    lb, n = b[-1], len(b) - 1
    while len(a) > n:
        top = a.pop()
        if top:
            k = len(a) - n
            if lb != 1:
                a = [lb * x for x in a]
            for i in range(n):
                a[k + i] -= top * b[i]
    return _trim(a)


def pgcd(a, b):
    """The gcd in Z[q] of two integer polynomials, primitive with a positive
    leading coefficient; gcd(0, 0) = ()."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return _primitive(a) if a else ()
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            return b
        a, b = b, _primitive(r)
    return _P1


def _exquo(a, b):
    """a / b in Z[q], for a primitive b that divides a in Q[q]."""
    a = list(a)
    lb, n = b[-1], len(b) - 1
    out = [0] * (len(a) - n)
    for k in range(len(a) - n - 1, -1, -1):
        c = out[k] = a[k + n] // lb
        if c:
            for i in range(n):
                a[k + i] -= c * b[i]
    return tuple(out)


def prender(a) -> str:
    """An integer polynomial in q, highest power first.  A coefficient with
    more decimal digits than `str` writes (`sys.get_int_max_str_digits`)
    raises PrintLimitError."""
    if not a:
        return "0"
    parts = []
    try:
        for k in range(len(a) - 1, -1, -1):
            c = a[k]
            if not c:
                continue
            if k == 0:
                mono = str(abs(c))
            else:
                pw = "q" if k == 1 else f"q^{k}"
                mono = pw if abs(c) == 1 else f"{abs(c)}*{pw}"
            if not parts:
                parts.append(mono if c > 0 else f"-{mono}")
            else:
                parts.append(f"+ {mono}" if c > 0 else f"- {mono}")
    except ValueError:
        raise PrintLimitError("coefficient too large to print (over "
                          f"{sys.get_int_max_str_digits()} decimal digits)") from None
    return " ".join(parts)


# ---------------------------------------------------------------------------
# rational functions of q
# ---------------------------------------------------------------------------

_new = object.__new__
_set = object.__setattr__


class Frozen:
    """Base of the package's immutable values.  Assigning to a field raises
    AttributeError; a class fills its slots through `object.__setattr__`,
    and so does `__setstate__`, which copy, deepcopy and pickle call."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __setstate__(self, state):
        for name, value in state[1].items():
            _set(self, name, value)


class RatFunc(Frozen):
    """A rational function num/den in q over Z[q], normalised as described
    in the module docstring."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=_P1):
        """num/den from coefficient sequences of ints or Fractions."""
        num = [Fraction(c) for c in num]
        den = [Fraction(c) for c in den]
        scale = lcm(*(c.denominator for c in num + den))
        den = _trim([int(c * scale) for c in den])
        if not den:
            raise ScalarError("zero denominator")
        r = _content_free(*_cancel(_trim([int(c * scale) for c in num]), den))
        _set(self, "num", r.num)
        _set(self, "den", r.den)

    # -- predicates

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == _P1 and self.den == _P1

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and len(self.den) == 1

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ScalarError(f"{self} is not constant")
        return Fraction(self.num[0], self.den[0]) if self.num else Fraction(0)

    # -- arithmetic

    def __add__(self, other):
        if type(other) is not RatFunc:
            other = _as_ratfunc(other)
            if other is NotImplemented:
                return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        return _sum(self.num, self.den, other.num, other.den)

    __radd__ = __add__

    def __neg__(self):
        n = self.num
        if len(n) > 1:
            return _raw(tuple(-c for c in n), self.den)
        return _raw((-n[0],), self.den) if n else self

    def __sub__(self, other):
        if type(other) is not RatFunc:
            other = _as_ratfunc(other)
            if other is NotImplemented:
                return NotImplemented
        n = other.num
        if not n:
            return self
        n = (-n[0],) if len(n) == 1 else tuple(-c for c in n)
        return _sum(self.num, self.den, n, other.den)

    def __rsub__(self, other):
        other = _as_ratfunc(other)
        return NotImplemented if other is NotImplemented else other - self

    def __mul__(self, other):
        if type(other) is not RatFunc:
            other = _as_ratfunc(other)
            if other is NotImplemented:
                return NotImplemented
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if not n1 or not n2:
            return _R0
        if len(n1) == len(n2) == len(d1) == len(d2) == 1:     # constants
            a, b = n1[0] * n2[0], d1[0] * d2[0]
            g = gcd(a, b)
            return _raw((a // g,), (b // g,))
        # cancel across the two fractions; each is already in lowest terms
        n1, d2 = _cancel(n1, d2)
        n2, d1 = _cancel(n2, d1)
        return _content_free(pmul(n1, n2), pmul(d1, d2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ScalarError("division by zero rational function")
        return self * _content_free(other.den, other.num)

    def __rtruediv__(self, other):
        other = _as_ratfunc(other)
        return NotImplemented if other is NotImplemented else other / self

    def __eq__(self, other):
        if type(other) is not RatFunc:
            other = _as_ratfunc(other)
            if other is NotImplemented:
                return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        num, den = self.num, self.den
        if len(num) > 1 or len(den) > 1:
            return hash((num, den))
        # a constant hashes as the equal int or Fraction does
        return hash(num[0] if den[0] == 1 else Fraction(num[0], den[0])) if num else 0

    def __bool__(self):
        return bool(self.num)

    def render(self) -> str:
        lead = self.den[-1]
        num = prender([Fraction(c, lead) for c in self.num])
        if len(self.den) == 1:
            return num
        return f"({num})/({prender([Fraction(c, lead) for c in self.den])})"

    __str__ = render

    def __repr__(self):
        return f"RatFunc({self.render()})"


def _sum(n1, d1, n2, d2) -> RatFunc:
    """n1/d1 + n2/d2 for normalised fractions with n2 nonzero.  `__add__`
    and `__sub__` return an operand itself when the other is zero, before
    calling this: a new RatFunc for each zero operand made a `full_tower`
    pass about 10 % slower."""
    if not n1:
        return _raw(n2, d2)
    if len(n1) == len(n2) == len(d1) == len(d2) == 1:     # constants
        a = n1[0] * d2[0] + n2[0] * d1[0]
        if not a:
            return _R0
        b = d1[0] * d2[0]
        g = gcd(a, b)
        return _raw((a // g,), (b // g,))
    if d1 == d2:
        return _content_free(*_cancel(padd(n1, n2), d1))
    g = pgcd(d1, d2) if len(d1) > 1 and len(d2) > 1 else _P1
    if g == _P1:
        return _content_free(padd(pmul(n1, d2), pmul(n2, d1)), pmul(d1, d2))
    e1, e2 = _exquo(d1, g), _exquo(d2, g)
    # the new numerator is coprime to e1 and e2: only factors of g cancel
    num, g = _cancel(padd(pmul(n1, e2), pmul(n2, e1)), g)
    return _content_free(num, pmul(pmul(e1, e2), g))


def _raw(num, den) -> RatFunc:
    """A RatFunc from data that is already normalised."""
    r = _new(RatFunc)
    _set(r, "num", num)
    _set(r, "den", den)
    return r


def _content_free(num, den) -> RatFunc:
    """num/den for coprime num, den: strip the common integer content and
    make the leading coefficient of den positive."""
    if not num:
        return _R0
    c = gcd(*num, *den)
    if den[-1] < 0:
        c = -c
    if c != 1:
        num = tuple(x // c for x in num)
        den = tuple(x // c for x in den)
    return _raw(num, den)


def _cancel(a, b):
    """a and b divided by their gcd in Z[q]."""
    if len(a) > 1 and len(b) > 1:
        g = pgcd(a, b)
        if len(g) > 1:
            return _exquo(a, g), _exquo(b, g)
    return a, b


def _evaluate(r, a, b, q0):
    """Integers (n, d), d != 0, with n/d = r(a/b) for a nonzero RatFunc r
    and q0 = a/b: b^deg(num) num(a/b) and b^deg(den) den(a/b) by
    `_hhorner`, and the power of b that their degrees differ by.  A pole
    raises SpecializationError."""
    num, den = r.num, r.den
    d = _hhorner(den, a, b)
    if not d:
        raise SpecializationError(f"pole at q = {q0}")
    n, k = _hhorner(num, a, b), len(den) - len(num)
    return (n * b ** k, d) if k >= 0 else (n, d * b ** -k)


def _hhorner(a, n, d):
    """d^deg(a) a(n/d) for a nonzero integer polynomial a: the homogeneous
    Horner scheme, all in integers."""
    acc, pw = a[-1], d
    for c in a[-2::-1]:
        acc *= n
        if c:
            acc += c * pw
        pw *= d
    return acc


def _rational(n, d) -> RatFunc:
    """The constant n/d, for integers n and d != 0."""
    return _content_free((n,), (d,)) if n else _R0


def _as_ratfunc(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction)):
        return _raw((x.numerator,), (x.denominator,)) if x else _R0
    return NotImplemented


_R0 = _raw((), _P1)
_R1 = _raw(_P1, _P1)
_R2 = _raw((2,), _P1)
_RQ = _raw((0, 1), _P1)
_R2Q = _raw((0, 2), _P1)


# ---------------------------------------------------------------------------
# the tower  Q(q)[u, v] / (u^2 - 2, v^2 - q)
# ---------------------------------------------------------------------------

class Scalar(Frozen):
    """Element c00 + c10*u + c01*v + c11*u*v with RatFunc components."""

    __slots__ = ("c",)

    def __init__(self, c00=_R0, c10=_R0, c01=_R0, c11=_R0):
        parts = []
        for x in (c00, c10, c01, c11):
            r = _as_ratfunc(x)
            if r is NotImplemented:
                raise TypeError(f"cannot build Scalar component from {x!r}")
            parts.append(r)
        _set(self, "c", tuple(parts))

    # -- constructors

    @classmethod
    def from_fraction(cls, a) -> "Scalar":
        return as_scalar(Fraction(a))

    @classmethod
    def q(cls) -> "Scalar":
        return cls(_RQ)

    @classmethod
    def u(cls) -> "Scalar":
        return cls(_R0, _R1)

    @classmethod
    def v(cls) -> "Scalar":
        return cls(_R0, _R0, _R1)

    # -- predicates

    def is_zero(self) -> bool:
        return not self

    def is_rational(self) -> bool:
        c = self.c
        return c[0].is_constant() and not (c[1] or c[2] or c[3])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ScalarError(f"{self} is not a plain rational")
        return self.c[0].as_fraction()

    def bit_size(self) -> int:
        """Total bit length of the integer coefficients of the four
        components: a cost measure for ordering eliminations."""
        return sum(abs(a).bit_length() for r in self.c for a in r.num + r.den)

    def __bool__(self):
        a, b, c, d = self.c
        return bool(a.num or b.num or c.num or d.num)

    # -- arithmetic

    def __add__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.c, other.c
        if not (a[1].num or a[2].num or a[3].num or b[1].num or b[2].num or b[3].num):
            return _scalar(a[0] + b[0], _R0, _R0, _R0)
        return _scalar(a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])

    __radd__ = __add__

    def __neg__(self):
        a = self.c
        return _scalar(-a[0], -a[1], -a[2], -a[3])

    def __sub__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.c, other.c
        if not (a[1].num or a[2].num or a[3].num or b[1].num or b[2].num or b[3].num):
            return _scalar(a[0] - b[0], _R0, _R0, _R0)
        return _scalar(a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])

    def __rsub__(self, other):
        other = as_scalar(other)
        return NotImplemented if other is NotImplemented else other - self

    def __mul__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.c, other.c
        # u^2 = 2, v^2 = q, (uv)^2 = 2q; fast paths for Q(q) and the u-plane
        if not (a[2].num or a[3].num or b[2].num or b[3].num):
            if not (a[1].num or b[1].num):
                return _scalar(a[0] * b[0], _R0, _R0, _R0)
            return _scalar(a[0] * b[0] + _R2 * (a[1] * b[1]),
                           a[0] * b[1] + a[1] * b[0], _R0, _R0)
        q = _RQ
        two = _R2
        return _scalar(
            a[0] * b[0] + two * (a[1] * b[1]) + q * (a[2] * b[2]) + _R2Q * (a[3] * b[3]),
            a[0] * b[1] + a[1] * b[0] + q * (a[2] * b[3] + a[3] * b[2]),
            a[0] * b[2] + a[2] * b[0] + two * (a[1] * b[3] + a[3] * b[1]),
            a[0] * b[3] + a[3] * b[0] + a[1] * b[2] + a[2] * b[1])

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """x^-1 = s_u(x) s_v(x) s_uv(x) / N(x), with the Galois conjugates
        s_u: u -> -u, s_v: v -> -v, s_uv = s_u s_v, and the norm
        N(x) = x s_u(x) s_v(x) s_uv(x) in Q(q)."""
        if not self:
            raise ScalarError("division by zero")
        c0, c1, c2, c3 = self.c
        if not (c1.num or c2.num or c3.num):
            return _scalar(_R1 / c0, _R0, _R0, _R0)
        q, two = _RQ, _R2
        # x s_u(x) = a + b v, so x^-1 = s_u(x) (a - b v) / (a^2 - q b^2)
        a = c0 * c0 + q * (c2 * c2) - two * (c1 * c1 + q * (c3 * c3))
        b = two * (c0 * c2 - two * (c1 * c3))
        if b:
            norm = a * a - q * (b * b)
            w = (c0 * a - q * (c2 * b), q * (c3 * b) - c1 * a,
                 c2 * a - c0 * b, c1 * b - c3 * a)
        else:
            norm, w = a, (c0, -c1, c2, -c3)
        inv = _R1 / norm
        return _scalar(*(c * inv for c in w))

    def __truediv__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = as_scalar(other)
        return NotImplemented if other is NotImplemented else other / self

    def __eq__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        c0, c1, c2, c3 = self.c
        if not (c1.num or c2.num or c3.num):
            return hash(c0)                     # as the equal RatFunc does
        return hash(((c0.num, c0.den), (c1.num, c1.den), (c2.num, c2.den),
                     (c3.num, c3.den)))

    # -- substitution

    def specialize(self, q0) -> "Scalar":
        """Substitute q ↦ q0 (and v ↦ the non-negative rational sqrt of q0).

        Raises SpecializationError on a pole, or when the element involves v
        and q0 is not the square of a rational.  Each nonzero component is
        evaluated in integers (`_evaluate`), and the two rational components
        of the result are reduced by one gcd each and built directly.
        """
        if type(q0) is not Fraction:
            q0 = Fraction(q0)
        a, b = q0.numerator, q0.denominator
        (n0, d0), (n1, d1), (n2, d2), (n3, d3) = (
            _evaluate(r, a, b, q0) if r.num else (0, 1) for r in self.c)
        if n2 or n3:
            r = _rational_sqrt(a, b)
            if r is None:
                raise SpecializationError(f"sqrt({q0}) is irrational; cannot specialize v")
            rn, rd = r
            n0, d0 = n0 * rd * d2 + rn * n2 * d0, d0 * rd * d2
            n1, d1 = n1 * rd * d3 + rn * n3 * d1, d1 * rd * d3
        return _scalar(_rational(n0, d0), _rational(n1, d1), _R0, _R0)

    def residue(self):
        """The image in Z/P (P = 2^61 - 1) under q ↦ V0^2, v ↦ V0 and u ↦ a
        root of 2 mod P, as an int in [0, P); None at a pole (a denominator
        that vanishes at V0^2 mod P).  On elements without a pole this is a
        ring homomorphism, since the images keep u^2 = 2 and v^2 = q: a
        minor with a nonzero residue is nonzero over the tower."""
        out = 0
        for r, w in zip(self.c, _RESIDUE_BASIS):
            if r.num:
                d = _presidue(r.den)
                if not d:
                    return None
                n = _presidue(r.num)
                out += n * w if d == 1 else n * pow(d, -1, RESIDUE_P) * w
        return out % RESIDUE_P

    # -- rendering

    def render(self) -> str:
        names = ("", "u", "v", "u*v")
        parts = []
        for comp, name in zip(self.c, names):
            if comp.is_zero():
                continue
            body = comp.render()
            if not name:
                parts.append(body)
            elif comp.is_one():
                parts.append(name)
            else:
                parts.append(f"({body})*{name}")
        if not parts:
            return "0"
        return " + ".join(parts)

    __str__ = render

    def __repr__(self):
        return f"Scalar({self.render()})"


def _scalar(c00, c10, c01, c11) -> Scalar:
    out = _new(Scalar)
    _set(out, "c", (c00, c10, c01, c11))
    return out


def as_scalar(x):
    """An int, Fraction, RatFunc or Scalar as a Scalar, else NotImplemented."""
    if isinstance(x, Scalar):
        return x
    r = _as_ratfunc(x)
    return NotImplemented if r is NotImplemented else _scalar(r, _R0, _R0, _R0)


def exact(c):
    """c (an int, Fraction, RatFunc or Scalar) in its smallest exact type:
    an int, a non-integral Fraction, or a Scalar that is not rational."""
    if not isinstance(c, (int, Fraction)):
        s = as_scalar(c)
        if s is NotImplemented:
            raise TypeError(f"{c!r} is not an exact coefficient")
        n, d = s.c[0].num, s.c[0].den
        if s.c[1].num or s.c[2].num or s.c[3].num or len(n) > 1 or len(d) > 1:
            return s
        return (n[0] if d[0] == 1 else Fraction(n[0], d[0])) if n else 0
    return c.numerator if c.denominator == 1 else c


def residue(c):
    """`Scalar.residue` of an `exact` value: its image in Z/P, None at a pole."""
    if isinstance(c, Scalar):
        return c.residue()
    d = c.denominator % RESIDUE_P
    return c.numerator * pow(d, -1, RESIDUE_P) % RESIDUE_P if d else None


# The residue map Scalar.residue: P = 2^61 - 1 is prime, P ≡ 7 mod 8 makes
# 2 a square mod P, and P ≡ 3 mod 4 gives its root as 2^((P+1)/4).
RESIDUE_P = (1 << 61) - 1
RESIDUE_V0 = 3_141_592_653
_RESIDUE_Q0 = RESIDUE_V0 * RESIDUE_V0 % RESIDUE_P
_RESIDUE_U0 = pow(2, (RESIDUE_P + 1) // 4, RESIDUE_P)
_RESIDUE_BASIS = (1, _RESIDUE_U0, RESIDUE_V0, _RESIDUE_U0 * RESIDUE_V0 % RESIDUE_P)


def _presidue(a) -> int:
    """An integer polynomial at q = V0^2, mod P."""
    acc = 0
    for c in reversed(a):
        acc = (acc * _RESIDUE_Q0 + c) % RESIDUE_P
    return acc


def _rational_sqrt(n, d):
    """(rn, rd) with rn/rd = sqrt(n/d), for n/d in lowest terms with d > 0,
    or None when n/d is not the square of a rational."""
    if n < 0:
        return None
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return rn, rd


SC0 = Scalar()
SC1 = Scalar(_R1)
INV_SQRT2 = Scalar.u() * Fraction(1, 2)
