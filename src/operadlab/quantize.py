"""Deformation-quantization workbench on a truncated polynomial carrier.

The carrier is Q[x, p]; test elements are the monomials of total degree
<= D (default 4), and elements of the deformed algebra are polynomials in
x, p and the formal parameter t.  The degree bound only caps the probed
basis and the order N truncates powers of t, so every check is exact.

A `TPoly` keeps each coefficient in its smallest exact type (`exact`): an
int, a non-integral Fraction, or a tower `Scalar` that is not rational.
Rational data never touches `Scalar` arithmetic; `render` still writes
every coefficient through `Scalar.render`.

A star product is a `rule(u, v)` that is bilinear over the tower and in
t, and respects t-adic precision: rule(u, v) is trusted modulo
t^min(u.order, v.order, N_rule), where N_rule is the order the rule
reports on basis monomials.  `StarProduct` calls its rule only on pairs
of coefficient-1 monomials x^i p^j, keeps those values in a table filled
lazily on the instance with two views derived from it, rule(m1, m2) +-
rule(m2, m1), and expands rule(u, v) +- rule(v, u) in one pass over u x v.

The worked example is the standard-ordered product u * v = sum_k (t^k/k!)
(d_p^k u)(d_x^k v), exactly associative and commutative mod t.
`polarize_star` splits it into the commutative product (1/sqrt 2)(sym
part) and the bracket (1/sqrt 2)(antisym part)/t, whose compatibility
axioms (deformation parameter t^2) `check_LL` verifies.  `LLData` keeps
the common factor 1/sqrt 2 apart from its operations: `dot` and `br`
return scaled values, `check_LL` runs on the unscaled ones.  Each term of
its axioms holds exactly two operations, so a common factor c multiplies
every defect by c^2 and cannot change a verdict or the first failure.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import comb, isfinite, perm

from .scalar import Frozen, Scalar, as_scalar, INV_SQRT2


class QuantizeError(ValueError):
    pass


def _min_order(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def exact(c):
    """A coefficient in its smallest exact type: int, non-integral
    Fraction, or a Scalar that is not rational.  c must be an int, a
    Fraction, a finite float or a Scalar."""
    if not isinstance(c, (int, Fraction)):
        if isinstance(c, Scalar):
            if not c.is_rational():
                return c
            c = c.as_fraction()
        elif isinstance(c, float) and isfinite(c):
            c = Fraction(c)
        else:
            raise QuantizeError(f"coefficient {c!r} is not an int, Fraction, "
                                "finite float or Scalar")
    return c.numerator if c.denominator == 1 else c


class TPoly(Frozen):
    """Polynomial in x, p and t over the scalar tower.

    coeffs maps (t_power, x_power, p_power) -> coefficient in `exact`
    form.  `order` is the t-adic precision: None means exact, an integer
    N means the coefficients are only trusted modulo t^N.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs=None, order=None):
        cc = {}
        for key, v in (coeffs or {}).items():
            if order is not None and key[0] >= order:
                continue
            if type(v) is not int:
                v = exact(v)
            if v:
                cc[tuple(key)] = v
        _SET_COEFFS(self, cc)
        _SET_ORDER(self, order)

    @classmethod
    def _of(cls, coeffs, order):
        """A TPoly on nonzero `exact` values at keys below order, unchecked."""
        new = object.__new__(cls)
        _SET_COEFFS(new, coeffs)
        _SET_ORDER(new, order)
        return new

    @classmethod
    def monomial(cls, xdeg: int, pdeg: int, coeff=1) -> "TPoly":
        if xdeg < 0 or pdeg < 0:
            raise QuantizeError(f"negative degree in x^{xdeg} p^{pdeg}")
        return cls({(0, xdeg, pdeg): coeff})

    @classmethod
    def zero(cls) -> "TPoly":
        return cls()

    def __add__(self, other):
        cc = dict(self.coeffs)
        for k, v in other.coeffs.items():
            cc[k] = cc.get(k, 0) + v
        return TPoly(cc, _min_order(self.order, other.order))

    def __neg__(self):
        return TPoly._of({k: -v for k, v in self.coeffs.items()}, self.order)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s) -> "TPoly":
        s = exact(s)
        if type(s) is int and s == 1:
            return self
        return TPoly({k: s * v for k, v in self.coeffs.items()}, self.order)

    def __mul__(self, other):
        if not isinstance(other, TPoly):
            return self.scale(other)
        order = _min_order(self.order, other.order)
        cc = {}
        for (k1, i1, j1), v1 in self.coeffs.items():
            for (k2, i2, j2), v2 in other.coeffs.items():
                k = k1 + k2
                if order is not None and k >= order:
                    continue
                key = (k, i1 + i2, j1 + j2)
                cc[key] = cc.get(key, 0) + v1 * v2
        return TPoly(cc, order)

    __rmul__ = __mul__

    def dx(self) -> "TPoly":
        return TPoly({(k, i - 1, j): v * i
                      for (k, i, j), v in self.coeffs.items() if i},
                     self.order)

    def dp(self) -> "TPoly":
        return TPoly({(k, i, j - 1): v * j
                      for (k, i, j), v in self.coeffs.items() if j},
                     self.order)

    def times_t(self, power: int = 1) -> "TPoly":
        order = None if self.order is None else self.order + power
        return TPoly._of({(k + power, i, j): v
                          for (k, i, j), v in self.coeffs.items()}, order)

    def divide_t(self) -> "TPoly":
        if any(k == 0 for k, _, _ in self.coeffs):
            raise QuantizeError("not divisible by t")
        order = None if self.order is None else self.order - 1
        return TPoly._of({(k - 1, i, j): v
                          for (k, i, j), v in self.coeffs.items()}, order)

    def t_component(self, k: int) -> "TPoly":
        return TPoly({(0, i, j): v
                      for (kk, i, j), v in self.coeffs.items() if kk == k})

    def truncated(self, n: int) -> "TPoly":
        return TPoly({key: v for key, v in self.coeffs.items() if key[0] < n},
                     n if self.order is None else min(self.order, n))

    def is_zero_mod(self, n=None) -> bool:
        n = _min_order(self.order, n)
        if n is None:
            return not self.coeffs
        return all(k >= n for (k, _, _) in self.coeffs)

    def eq_mod(self, other, n=None) -> bool:
        return (self - other).is_zero_mod(n)

    def __eq__(self, other):
        return (isinstance(other, TPoly) and self.order == other.order
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.order, frozenset(self.coeffs.items())))

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for (k, i, j) in sorted(self.coeffs):
            v = self.coeffs[(k, i, j)]
            mono = "".join([f"t^{k}" if k > 1 else "t" * k,
                            f"x^{i}" if i > 1 else "x" * i,
                            f"p^{j}" if j > 1 else "p" * j]) or "1"
            parts.append(f"({as_scalar(v).render()})*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"TPoly({self.render()})"


# the slot descriptors' setters: Frozen refuses plain assignment
_SET_COEFFS, _SET_ORDER = TPoly.coeffs.__set__, TPoly.order.__set__


def _exponents(degree: int):
    if degree < 0:
        raise QuantizeError(f"carrier degree {degree} is negative")
    return sorted((i, j) for i in range(degree + 1) for j in range(degree + 1 - i))


def basis_monomials(degree: int):
    """Carrier basis: monomials x^i p^j with i + j <= degree."""
    return [TPoly.monomial(i, j) for i, j in _exponents(degree)]


# ---------------------------------------------------------------------------
# star products
# ---------------------------------------------------------------------------

class StarProduct:
    """An order-N deformation of a commutative product, given by a bilinear
    rule on the carrier.  The per-order components *_0, ..., *_{N-1} are
    exposed via `component`."""

    def __init__(self, order: int, rule, name="star"):
        if order < 1:
            raise QuantizeError("order must be >= 1")
        self.order = order
        self.rule = rule
        self.name = name
        self._tables = {0: {}, 1: {}, -1: {}}    # twist -> {(i1, j1, i2, j2): terms}

    @functools.cached_property
    def precision(self):
        """N_rule, the t-adic order the rule reports on basis monomials."""
        return self.rule(TPoly.monomial(0, 0), TPoly.monomial(0, 0)).order

    def _terms(self, key, twist=0):
        """rule(m1, m2) + twist * rule(m2, m1) on m1 = x^i1 p^j1, m2 = x^i2 p^j2
        as (k, i, j, c) terms by t-power.  Only twist 0 calls the rule, and
        every pair must report `precision`, the order the table is cut at."""
        table = self._tables[twist]
        terms = table.get(key)
        if terms is None:
            if twist:
                cc = {}
                for sign, pair in ((1, key), (twist, key[2:] + key[:2])):
                    for k, i, j, c in self._terms(pair):
                        cc[k, i, j] = cc.get((k, i, j), 0) + sign * c
            else:
                w = self.rule(TPoly.monomial(*key[:2]), TPoly.monomial(*key[2:]))
                if w.order != self.precision:
                    i1, j1, i2, j2 = key
                    raise QuantizeError(
                        f"{self.name}: the rule reports order {w.order} on "
                        f"x^{i1} p^{j1}, x^{i2} p^{j2} but order {self.precision} "
                        f"on 1, 1")
                cc = w.coeffs
            terms = table[key] = tuple(m + (exact(c),) for m, c in sorted(cc.items()) if c)
            if twist == 1:
                table[key[2:] + key[:2]] = terms
        return terms

    def expand(self, u: TPoly, v: TPoly, limit=None, twist=0) -> TPoly:
        """rule(u, v) + twist * rule(v, u), twist in (0, 1, -1), by
        bilinearity from the table of that twist, truncated mod t^limit too."""
        if twist not in (0, 1, -1):
            raise QuantizeError(f"twist {twist!r} is not 0, 1 or -1")
        table = self._tables[twist]
        order = _min_order(_min_order(u.order, v.order),
                           _min_order(self.precision, limit))
        cc = {}
        get = cc.get
        for (k1, i1, j1), c1 in u.coeffs.items():
            for (k2, i2, j2), c2 in v.coeffs.items():
                pair = (i1, j1, i2, j2)
                terms = table.get(pair)
                if terms is None:
                    terms = self._terms(pair, twist)
                c12 = c1 * c2
                for k, i, j, c in terms:
                    k += k1 + k2
                    if order is not None and k >= order:
                        break
                    key = (k, i, j)
                    cc[key] = get(key, 0) + c12 * c
        return TPoly._of({key: c if type(c) is int else exact(c)
                          for key, c in cc.items() if c}, order)

    def __call__(self, u: TPoly, v: TPoly) -> TPoly:
        return self.expand(u, v, self.order)

    def component(self, k: int, u: TPoly, v: TPoly) -> TPoly:
        if not 0 <= k < self.order:
            raise QuantizeError(f"component index {k} outside 0..{self.order - 1}")
        return self.expand(u, v, k + 1).t_component(k)

    def commutative_mod_t(self, degree: int) -> bool:
        basis = basis_monomials(degree)
        return all(self.component(0, u, v).eq_mod(self.component(0, v, u))
                   for u, v in itertools.combinations(basis, 2))

    def associativity_defect(self, u, v, w) -> TPoly:
        return (self(self(u, v), w) - self(u, self(v, w))).truncated(self.order)

    def is_associative(self, degree: int) -> bool:
        basis = basis_monomials(degree)
        prod = [[self(u, v) for v in basis] for u in basis]
        return all(_vanishes(self.order, (1, 0, self(prod[a][b], basis[c])),
                             (-1, 0, self(basis[a], prod[b][c])))
                   for a, b, c in itertools.product(range(len(basis)), repeat=3))


def moyal_star(order: int = 4) -> StarProduct:
    """Standard-ordered star product: sum_k (t^k/k!) (d_p^k u)(d_x^k v).

    The sum is finite on polynomials, so values are exact; associativity
    holds on the nose (it mirrors operator composition in the standard
    ordering), and the t^0 part is plain multiplication.  On monomial
    pairs the k-th term carries the integer weight
    (j1)_k (i2)_k / k! = C(j1, k) (i2)_k.
    """

    def rule(u: TPoly, v: TPoly) -> TPoly:
        cc = {}
        tail = _min_order(u.order, v.order)
        for (k1, i1, j1), v1 in u.coeffs.items():
            for (k2, i2, j2), v2 in v.coeffs.items():
                w = v1 * v2
                for k in range(min(j1, i2) + 1):
                    kt = k1 + k2 + k
                    if tail is not None and kt >= tail:
                        break
                    key = (kt, i1 + i2 - k, j1 + j2 - k)
                    cc[key] = cc.get(key, 0) + w * (comb(j1, k) * perm(i2, k))
        return TPoly(cc, tail)

    return StarProduct(order, rule, name="moyal")


# ---------------------------------------------------------------------------
# the polarized data: commutative product plus degree-one bracket
# ---------------------------------------------------------------------------

class LLData:
    """Commutative product `dot` and antisymmetric bracket `br` on the
    carrier, with the bracket trusted modulo t^bracket_order.  `ops` holds
    the two operations before the nonzero common factor `scale`."""

    def __init__(self, order: int, dot, br, bracket_order=None, name="ll", scale=1):
        self.order = order
        self.ops = (dot, br)
        self.scale = exact(scale)
        if not self.scale:
            raise QuantizeError("scale must be nonzero")
        self.bracket_order = order if bracket_order is None else bracket_order
        self.name = name

    def dot(self, u: TPoly, v: TPoly) -> TPoly:
        return self.ops[0](u, v).scale(self.scale)

    def br(self, u: TPoly, v: TPoly) -> TPoly:
        return self.ops[1](u, v).scale(self.scale)

    def validate_symmetry(self, degree: int) -> bool:
        dot, br = self.ops
        basis = basis_monomials(degree)
        for u, v in itertools.combinations_with_replacement(basis, 2):
            if not (dot(u, v) - dot(v, u)).is_zero_mod(self.order):
                return False
            if not (br(u, v) + br(v, u)).is_zero_mod(self.bracket_order):
                return False
        return True

    def mutate_bracket(self, m1: tuple, m2: tuple, out: tuple, delta) -> "LLData":
        """Corrupt one structure coefficient of the bracket (antisymmetrised,
        so the result is still a bracket); m1, m2 are (xdeg, pdeg) basis
        monomials and out a (t, x, p) target monomial."""
        delta = exact(delta)

        def coeff_of(u: TPoly, mono):
            return u.coeffs.get((0,) + tuple(mono), 0)

        def br(u, v):
            bump = coeff_of(u, m1) * coeff_of(v, m2) - coeff_of(u, m2) * coeff_of(v, m1)
            return self.br(u, v) + TPoly({tuple(out): bump * delta})

        return LLData(self.order, self.dot, br, self.bracket_order,
                      name=self.name + "+mutation")


def polarize_star(s: StarProduct) -> LLData:
    """Split a star product into (1/sqrt 2)(sym part) and the bracket
    (1/sqrt 2)(antisym part)/t; fails if the product is not commutative
    modulo t."""
    if not s.commutative_mod_t(2):
        raise QuantizeError("not commutative mod t")

    def dot(u, v):
        return s.expand(u, v, s.order, twist=1)

    def br(u, v):
        return s.expand(u, v, twist=-1).divide_t()

    # dividing by t costs one order of precision unless the rule is exact
    border = s.order if s.precision is None else min(s.order, s.precision - 1)
    return LLData(s.order, dot, br, bracket_order=border,
                  name=s.name + ".polarized", scale=INV_SQRT2)


def star_from_LL(data: LLData, check: bool = True, degree: int = 4) -> StarProduct:
    """Assemble u * v = (1/sqrt 2)(u . v + t {u, v}) from the data."""
    if check:
        ok, failure = check_LL(data, degree=degree)
        if not ok:
            raise QuantizeError(f"input fails the compatibility axioms: {failure}")
    dot, br = data.ops
    c = exact(data.scale * INV_SQRT2)

    def rule(u, v):
        return (dot(u, v) + br(u, v).times_t()).scale(c)

    return StarProduct(data.order, rule, name=data.name + ".star")


def check_LL(data: LLData, degree: int = 4):
    """The three compatibility axioms with the deformation parameter t^2,
    on every triple of carrier basis monomials:

        {x,{y,z}} + {y,{z,x}} + {z,{x,y}} = 0
        {x, y.z} = {x,y}.z + y.{x,z}
        (x.y).z - x.(y.z) = t^2 {y,{x,z}}

    Each axiom is verified to the power of t its defect is trusted to, the
    same on every triple of exact monomials (read on 1, 1, 1); one trusted
    only mod t^0 raises QuantizeError.  Returns (ok, first failure or None).
    Runs on the unscaled operations: each axiom is homogeneous of degree
    two in them, so the common factor cannot change the result.

    `data.ops` is called on the arguments the axiom terms name, only the
    inner {y,z} and y.z on basis monomials shared; each defect is one signed
    sum.  The distributive defect is checked for y <= z only: `LLData`'s
    `dot` is commutative, so swapping y and z leaves that defect unchanged.
    """
    dot, br = data.ops
    n_dot, n_br = data.order, min(data.order, data.bracket_order)
    basis = basis_monomials(degree)
    n = len(basis)
    dotP = [[dot(u, v) for v in basis] for u in basis]
    brP = [[br(u, v) for v in basis] for u in basis]
    one, d1, b1 = basis[0], dotP[0][0], brP[0][0]
    for axiom, defect, modulus in (
            ("jacobi", br(one, b1), n_br),
            ("distributive", br(one, d1) - dot(b1, one), n_br),
            ("associator-defect", dot(d1, one) - br(one, b1).times_t(2),
             min(n_dot, n_br + 2))):
        if _min_order(defect.order, modulus) <= 0:
            raise QuantizeError(f"{axiom} axiom is trusted only mod t^0 at order {n_dot}")
    for a in range(n):
        xx = basis[a]
        for b in range(n):
            yy = basis[b]
            for c in range(n):
                zz = basis[c]
                # the jacobi defect is invariant under cyclic relabelling
                if a <= b and a <= c and not _vanishes(
                        n_br, (1, 0, br(xx, brP[b][c])), (1, 0, br(yy, brP[c][a])),
                        (1, 0, br(zz, brP[a][b]))):
                    return False, _fail("jacobi", xx, yy, zz)
                # the distributive defect is symmetric in the last two slots
                if b <= c and not _vanishes(
                        n_br, (1, 0, br(xx, dotP[b][c])), (-1, 0, dot(brP[a][b], zz)),
                        (-1, 0, dot(yy, brP[a][c]))):
                    return False, _fail("distributive", xx, yy, zz)
                if not _vanishes(
                        min(n_dot, n_br + 2), (1, 0, dot(dotP[a][b], zz)),
                        (-1, 0, dot(xx, dotP[b][c])), (-1, 2, br(yy, brP[a][c]))):
                    return False, _fail("associator-defect", xx, yy, zz)
    return True, None


def _vanishes(modulus, *terms):
    """Whether sum(sign * t^shift * f) is 0 mod t^modulus and every t^(f.order + shift)."""
    cc = {}
    for sign, shift, f in terms:
        if f.order is not None and f.order + shift < modulus:
            modulus = f.order + shift
        for (k, i, j), c in f.coeffs.items():
            key = (k + shift, i, j)
            cc[key] = cc.get(key, 0) + c if sign > 0 else cc.get(key, 0) - c
    return not any(c for (k, _, _), c in cc.items() if k < modulus)


def _fail(axiom, xx, yy, zz):
    return f"{axiom} fails on ({xx.render()}, {yy.render()}, {zz.render()})"


def classical_limit(s: StarProduct):
    """The order-zero product and the first-order commutator bracket
    (u, v) -> u *_1 v - v *_1 u; together they form a Poisson algebra."""

    def dot0(u, v):
        return s.component(0, u, v)

    def br0(u, v):
        return s.component(1, u, v) - s.component(1, v, u)

    return dot0, br0


def poisson_check(dot0, br0, degree: int = 3) -> bool:
    """Poisson axioms for t-free operations.  A Poisson algebra is LL_q at
    q = 0: as LL data of order 1 the t^2 term of the third axiom vanishes
    and every axiom is checked exactly."""
    data = LLData(1, dot0, br0)
    return data.validate_symmetry(degree) and check_LL(data, degree)[0]
