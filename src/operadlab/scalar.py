"""Exact coefficient arithmetic for the whole package.

Every coefficient lives in the field tower

    Q  <  Q(q)  <  Q(q)[u, v] / (u^2 - 2, v^2 - q),

i.e. rational functions of a formal parameter q, extended by u = sqrt(2)
and v = sqrt(q).  The tower is a genuine field (q is an indeterminate,
so u and v generate a degree-four extension), hence every nonzero
element is invertible.  All values are immutable and normalised on
construction, so equality is plain structural equality and elements can
be used as dict keys.

Rational functions are kept with a monic, coprime denominator;
polynomials are dense coefficient tuples over `fractions.Fraction`.
Rendering writes `u` for sqrt(2) and `v` for sqrt(q), e.g.
``(q - 1)/(q + 3) + (1/2)*u``.
"""

from __future__ import annotations

from fractions import Fraction


class ScalarError(ArithmeticError):
    """Arithmetic failure in the coefficient tower (e.g. division by zero)."""


class SpecializationError(ScalarError):
    """q ↦ q0 substitution hit a pole or an irrational square root."""


# ---------------------------------------------------------------------------
# dense polynomials over Fraction, represented as coefficient tuples
# ---------------------------------------------------------------------------

_F0 = Fraction(0)
_F1 = Fraction(1)

PZERO: tuple = ()
PONE = (_F1,)


def _ptrim(cs):
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def pconst(a) -> tuple:
    a = Fraction(a)
    return (a,) if a else ()


def padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _ptrim(out)


def pneg(a):
    return tuple(-c for c in a)


def pmul(a, b):
    if not a or not b:
        return PZERO
    if len(a) == 1:
        c = a[0]
        return _ptrim([c * x for x in b])
    if len(b) == 1:
        c = b[0]
        return _ptrim([x * c for x in a])
    out = [_F0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ptrim(out)


def pdivmod(a, b):
    if not b:
        raise ScalarError("polynomial division by zero")
    a = list(a)
    q = [_F0] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    while len(a) >= len(b) and _ptrim(a):
        a = list(_ptrim(a))
        if len(a) < len(b):
            break
        c = a[-1] / lead
        k = len(a) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            a[k + i] -= c * y
        a = a[: len(a) - 1]
    return _ptrim(q), _ptrim(a)


def _int_primitive(p):
    """Integer coefficient list with content 1 and positive lead, from a
    tuple of Fractions (or ints)."""
    from math import gcd, lcm

    if not p:
        return []
    denlcm = 1
    for c in p:
        d = getattr(c, "denominator", 1)
        denlcm = lcm(denlcm, d)
    ints = [int(c * denlcm) for c in p]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if ints[-1] < 0:
        g = -g
    return [v // g for v in ints]


def pgcd(a, b):
    """Monic gcd via the primitive pseudo-remainder sequence over the
    integers, which keeps coefficient growth under control.
    gcd(0, 0) = 0."""
    A, B = _int_primitive(a), _int_primitive(b)
    while B:
        if len(A) < len(B):
            A, B = B, A
            continue
        lb = B[-1]
        R = list(A)
        while R and len(R) >= len(B):
            top = R[-1]
            shift = len(R) - len(B)
            if lb != 1:
                R = [lb * c for c in R]
            for i, bc in enumerate(B):
                R[shift + i] -= top * bc
            del R[-1]
            while R and not R[-1]:
                del R[-1]
        A, B = B, _int_primitive(R)
    if not A:
        return PZERO
    lead = A[-1]
    return tuple(Fraction(c, lead) for c in A)


def peval(a, x0: Fraction) -> Fraction:
    acc = _F0
    for c in reversed(a):
        acc = acc * x0 + c
    return acc


def prender(a, var: str = "q") -> str:
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if not c:
            continue
        if k == 0:
            mono = _frac_str(abs(c))
        else:
            pw = var if k == 1 else f"{var}^{k}"
            mono = pw if abs(c) == 1 else f"{_frac_str(abs(c))}*{pw}"
        if not parts:
            parts.append(mono if c > 0 else f"-{mono}")
        else:
            parts.append(f"+ {mono}" if c > 0 else f"- {mono}")
    return " ".join(parts)


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# rational functions of q
# ---------------------------------------------------------------------------

class RatFunc:
    """A rational function num/den in q; den is monic and coprime to num."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=PONE, _normalized=False):
        if not _normalized:
            num = _ptrim(tuple(Fraction(c) for c in num))
            den = _ptrim(tuple(Fraction(c) for c in den))
            if not den:
                raise ScalarError("zero denominator")
            if not num:
                den = PONE
            else:
                g = pgcd(num, den)
                if len(g) > 1:
                    num = pdivmod(num, g)[0]
                    den = pdivmod(den, g)[0]
                lead = den[-1]
                if lead != 1:
                    num = tuple(c / lead for c in num)
                    den = tuple(c / lead for c in den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RatFunc is immutable")

    # -- constructors

    @classmethod
    def const(cls, a) -> "RatFunc":
        return cls(pconst(a), PONE, _normalized=True)

    @classmethod
    def q(cls) -> "RatFunc":
        return cls((_F0, _F1), PONE, _normalized=True)

    # -- predicates

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == PONE and self.den == PONE

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and self.den == PONE

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ScalarError(f"{self} is not constant")
        return self.num[0] if self.num else _F0

    # -- arithmetic

    def __add__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == PONE and other.den == PONE:
            a, b = self.num, other.num
            if len(a) <= 1 and len(b) <= 1:
                s = (a[0] if a else _F0) + (b[0] if b else _F0)
                return RatFunc((s,) if s else PZERO, PONE, _normalized=True)
            return RatFunc(padd(a, b), PONE, _normalized=True)
        if self.den == other.den:
            return RatFunc(padd(self.num, other.num), self.den)
        return RatFunc(
            padd(pmul(self.num, other.den), pmul(other.num, self.den)),
            pmul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(pneg(self.num), self.den, _normalized=True)

    def __sub__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_ratfunc(other) - self

    def __mul__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == PONE and other.den == PONE:
            a, b = self.num, other.num
            if len(a) <= 1 and len(b) <= 1:
                if not a or not b:
                    return _R0
                return RatFunc((a[0] * b[0],), PONE, _normalized=True)
            return RatFunc(pmul(a, b), PONE, _normalized=True)
        return RatFunc(pmul(self.num, other.num), pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ScalarError("division by zero rational function")
        return RatFunc(pmul(self.num, other.den), pmul(self.den, other.num))

    def __rtruediv__(self, other):
        return _as_ratfunc(other) / self

    def __eq__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def evaluate(self, q0: Fraction) -> Fraction:
        q0 = Fraction(q0)
        d = peval(self.den, q0)
        if d == 0:
            raise SpecializationError(f"pole at q = {q0}")
        return peval(self.num, q0) / d

    def render(self) -> str:
        if self.den == PONE:
            s = prender(self.num)
            return s
        return f"({prender(self.num)})/({prender(self.den)})"

    __str__ = render

    def __repr__(self):
        return f"RatFunc({self.render()})"


def _as_ratfunc(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction)):
        return RatFunc.const(x)
    return NotImplemented


_R0 = RatFunc.const(0)
_R1 = RatFunc.const(1)
_R2 = RatFunc.const(2)
_RQ = RatFunc.q()


# ---------------------------------------------------------------------------
# the tower  Q(q)[u, v] / (u^2 - 2, v^2 - q)
# ---------------------------------------------------------------------------

class Scalar:
    """Element c00 + c10*u + c01*v + c11*u*v with RatFunc components."""

    __slots__ = ("c",)

    def __init__(self, c00=_R0, c10=_R0, c01=_R0, c11=_R0):
        parts = []
        for x in (c00, c10, c01, c11):
            r = _as_ratfunc(x)
            if r is NotImplemented:
                raise TypeError(f"cannot build Scalar component from {x!r}")
            parts.append(r)
        object.__setattr__(self, "c", tuple(parts))

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    # -- constructors

    @classmethod
    def from_fraction(cls, a) -> "Scalar":
        return cls(RatFunc.const(a))

    @classmethod
    def zero(cls) -> "Scalar":
        return _S0

    @classmethod
    def one(cls) -> "Scalar":
        return _S1

    @classmethod
    def q(cls) -> "Scalar":
        return cls(RatFunc.q())

    @classmethod
    def u(cls) -> "Scalar":
        return cls(_R0, _R1)

    @classmethod
    def v(cls) -> "Scalar":
        return cls(_R0, _R0, _R1)

    # -- predicates

    def is_zero(self) -> bool:
        return not any(self.c)

    def is_rational(self) -> bool:
        c = self.c
        return c[0].is_constant() and not (c[1] or c[2] or c[3])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ScalarError(f"{self} is not a plain rational")
        return self.c[0].as_fraction()

    def __bool__(self):
        return any(self.c)

    # -- arithmetic

    def __add__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.c, other.c
        out = Scalar.__new__(Scalar)
        object.__setattr__(out, "c", (a[0] + b[0], a[1] + b[1],
                                      a[2] + b[2], a[3] + b[3]))
        return out

    __radd__ = __add__

    def __neg__(self):
        a = self.c
        out = Scalar.__new__(Scalar)
        object.__setattr__(out, "c", (-a[0], -a[1], -a[2], -a[3]))
        return out

    def __sub__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return as_scalar(other) - self

    def __mul__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.c, other.c
        # u^2 = 2, v^2 = q, (uv)^2 = 2q; fast paths for the u-plane
        if not (a[2] or a[3] or b[2] or b[3]):
            if not (a[1] or b[1]):
                c00, c10 = a[0] * b[0], _R0
            else:
                c00 = a[0] * b[0] + _R2 * (a[1] * b[1])
                c10 = a[0] * b[1] + a[1] * b[0]
            out = Scalar.__new__(Scalar)
            object.__setattr__(out, "c", (c00, c10, _R0, _R0))
            return out
        q = _RQ
        two = _R2
        c00 = a[0] * b[0] + two * (a[1] * b[1]) + q * (a[2] * b[2]) + two * q * (a[3] * b[3])
        c10 = a[0] * b[1] + a[1] * b[0] + q * (a[2] * b[3] + a[3] * b[2])
        c01 = a[0] * b[2] + a[2] * b[0] + two * (a[1] * b[3] + a[3] * b[1])
        c11 = a[0] * b[3] + a[3] * b[0] + a[1] * b[2] + a[2] * b[1]
        out = Scalar.__new__(Scalar)
        object.__setattr__(out, "c", (c00, c10, c01, c11))
        return out

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """Solve the 4x4 multiplication-matrix system self * x = 1."""
        if self.is_zero():
            raise ScalarError("division by zero")
        basis = (_S1, Scalar.u(), Scalar.v(), Scalar(_R0, _R0, _R0, _R1))
        cols = [(self * e).c for e in basis]
        # augmented system over RatFunc: rows are equations per component
        rows = [[cols[j][i] for j in range(4)] + [_R1 if i == 0 else _R0]
                for i in range(4)]
        for col in range(4):
            piv = next((r for r in range(col, 4) if rows[r][col]), None)
            if piv is None:
                raise ScalarError("non-invertible element (tower is not a field?)")
            rows[col], rows[piv] = rows[piv], rows[col]
            inv = _R1 / rows[col][col]
            rows[col] = [x * inv for x in rows[col]]
            for r in range(4):
                if r != col and rows[r][col]:
                    f = rows[r][col]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
        return Scalar(rows[0][4], rows[1][4], rows[2][4], rows[3][4])

    def __truediv__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return as_scalar(other) / self

    def __eq__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(self.c)

    # -- substitution

    def specialize(self, q0) -> "Scalar":
        """Substitute q ↦ q0 (and v ↦ the non-negative rational sqrt of q0).

        Raises SpecializationError on a pole, or when the element involves v
        and q0 is not the square of a rational.
        """
        q0 = Fraction(q0)
        vals = [comp.evaluate(q0) for comp in self.c]
        if vals[2] == 0 and vals[3] == 0:
            return Scalar(RatFunc.const(vals[0]), RatFunc.const(vals[1]))
        r = _rational_sqrt(q0)
        if r is None:
            raise SpecializationError(f"sqrt({q0}) is irrational; cannot specialize v")
        return Scalar(RatFunc.const(vals[0] + r * vals[2]),
                      RatFunc.const(vals[1] + r * vals[3]))

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


def as_scalar(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar.from_fraction(x)
    if isinstance(x, RatFunc):
        return Scalar(x)
    return NotImplemented


def _rational_sqrt(a: Fraction):
    if a < 0:
        return None
    if a == 0:
        return _F0
    n, d = a.numerator, a.denominator
    rn, rd = _isqrt_exact(n), _isqrt_exact(d)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


def _isqrt_exact(n: int):
    import math

    r = math.isqrt(n)
    return r if r * r == n else None


_S0 = Scalar()
_S1 = Scalar(_R1)

SC0 = _S0
SC1 = _S1
INV_SQRT2 = Scalar.u() * Fraction(1, 2)
