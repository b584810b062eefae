"""Deformation-quantization workbench on a truncated polynomial carrier.

The carrier is Q[x, p]; test elements are the monomials of total degree
<= D (default 4), and elements of the deformed algebra are polynomials in
x, p and the formal parameter t.  The degree bound only caps the probed
basis and the order N truncates powers of t, so every check is exact.

A `TPoly` keeps each coefficient in its smallest exact type (`exact`, which
is `scalar.exact` on a float-free value): an int, a non-integral Fraction,
or a tower `Scalar` that is not rational.
Rational data never touches `Scalar` arithmetic; `render` still writes
every coefficient through `Scalar.render`.

A star product is a `rule(u, v)` that is bilinear over the tower and in
t, and respects t-adic precision: rule(u, v) is trusted modulo
t^min(u.order, v.order, N_rule), where N_rule is the order the rule
reports on basis monomials.  `StarProduct` calls its rule only on pairs
of coefficient-1 monomials x^i p^j and keeps those values in one table,
filled lazily on the instance.  It expands rule(u, v) +- rule(v, u) in one
pass over u x v, reading rule(m1, m2) and rule(m2, m1) from that table.

The worked example is the standard-ordered product u * v = sum_k (t^k/k!)
(d_p^k u)(d_x^k v), exactly associative and commutative mod t.
`polarize_star` splits it into the commutative product (1/sqrt 2)(sym
part) and the bracket (1/sqrt 2)(antisym part)/t, an LL_q algebra at
q = t^2, which `check_LL` verifies.  `LLData` keeps the common factor
1/sqrt 2 apart from its operations: `dot` and `br` return scaled values,
`check_LL` runs on the unscaled ones.  Each term of the LL_q relations
holds exactly two operations, so a common factor c multiplies every
defect by c^2 and cannot change a verdict or the first failure.  Every
axiom check on this carrier is `satisfies` on a builtin presentation; it
skips a triple only for a smaller one with the same defect up to sign.
Its operations must be bilinear over Q[t], and the order of op(u, v) may
depend only on the orders of u and v.  The components u *_k v that
`commutative_mod_t` and the Poisson check use are not Q[t]-linear; they
qualify because their values, hence every inner value they meet, are t-free.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import comb, isfinite, perm
from types import MappingProxyType

from .free3 import SIGMA3, VARS, right_action
from .presentation import App, builtin, relation_vector
from . import scalar
from .scalar import Frozen, Scalar, as_scalar, INV_SQRT2


class QuantizeError(ValueError):
    pass


def _min_order(a, b):
    return b if a is None else a if b is None else min(a, b)


def _order_text(n):
    return "exact" if n is None else f"order {n}"


def exact(c):
    """A coefficient in its smallest exact type: int, non-integral
    Fraction, or a Scalar that is not rational.  c must be an int, a
    Fraction, a finite float or a Scalar."""
    if not isinstance(c, (int, Fraction, Scalar)):
        if not (isinstance(c, float) and isfinite(c)):
            raise QuantizeError(f"coefficient {c!r} is not an int, Fraction, "
                                "finite float or Scalar")
        c = Fraction(c)
    return scalar.exact(c)


class TPoly(Frozen):
    """Polynomial in x, p and t over the scalar tower.

    coeffs is a read-only view of (t_power, x_power, p_power) -> `exact`
    coefficient.  `order` is the t-adic precision: None means exact, an
    integer N means the coefficients are only trusted modulo t^N.
    """

    __slots__ = ("_coeffs", "order")

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

    coeffs = property(lambda self: MappingProxyType(self._coeffs))

    def __add__(self, other):
        if not isinstance(other, TPoly):
            return NotImplemented
        cc = dict(self._coeffs)
        for k, v in other._coeffs.items():
            cc[k] = cc.get(k, 0) + v
        return TPoly(cc, _min_order(self.order, other.order))

    def __neg__(self):
        return TPoly._of({k: -v for k, v in self._coeffs.items()}, self.order)

    def __sub__(self, other):
        return self + (-other) if isinstance(other, TPoly) else NotImplemented

    def scale(self, s) -> "TPoly":
        s = exact(s)
        if type(s) is int and s == 1:
            return self
        return TPoly({k: s * v for k, v in self._coeffs.items()}, self.order)

    def __mul__(self, other):
        if not isinstance(other, TPoly):
            return self.scale(other)
        order = _min_order(self.order, other.order)
        cc = {}
        for (k1, i1, j1), v1 in self._coeffs.items():
            for (k2, i2, j2), v2 in other._coeffs.items():
                k = k1 + k2
                if order is not None and k >= order:
                    continue
                key = (k, i1 + i2, j1 + j2)
                cc[key] = cc.get(key, 0) + v1 * v2
        return TPoly(cc, order)

    __rmul__ = __mul__

    def dx(self) -> "TPoly":
        return TPoly({(k, i - 1, j): v * i
                      for (k, i, j), v in self._coeffs.items() if i},
                     self.order)

    def dp(self) -> "TPoly":
        return TPoly({(k, i, j - 1): v * j
                      for (k, i, j), v in self._coeffs.items() if j},
                     self.order)

    def times_t(self, power: int = 1) -> "TPoly":
        order = None if self.order is None else self.order + power
        return TPoly._of({(k + power, i, j): v
                          for (k, i, j), v in self._coeffs.items()}, order)

    def divide_t(self) -> "TPoly":
        if any(k == 0 for k, _, _ in self._coeffs):
            raise QuantizeError("not divisible by t")
        order = None if self.order is None else self.order - 1
        return TPoly._of({(k - 1, i, j): v
                          for (k, i, j), v in self._coeffs.items()}, order)

    def t_component(self, k: int) -> "TPoly":
        return TPoly({(0, i, j): v
                      for (kk, i, j), v in self._coeffs.items() if kk == k})

    def truncated(self, n: int) -> "TPoly":
        return TPoly({key: v for key, v in self._coeffs.items() if key[0] < n},
                     n if self.order is None else min(self.order, n))

    def is_zero_mod(self, n=None) -> bool:
        n = _min_order(self.order, n)
        if n is None:
            return not self._coeffs
        return all(k >= n for (k, _, _) in self._coeffs)

    def eq_mod(self, other, n=None) -> bool:
        return (self - other).is_zero_mod(n)

    def __eq__(self, other):
        return (isinstance(other, TPoly) and self.order == other.order
                and self._coeffs == other._coeffs)

    def __hash__(self):
        return hash((self.order, frozenset(self._coeffs.items())))

    def render(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for (k, i, j) in sorted(self._coeffs):
            v = self._coeffs[(k, i, j)]
            mono = "".join([f"t^{k}" if k > 1 else "t" * k,
                            f"x^{i}" if i > 1 else "x" * i,
                            f"p^{j}" if j > 1 else "p" * j]) or "1"
            parts.append(f"({as_scalar(v).render()})*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"TPoly({self.render()})"


# the slot descriptors' setters: Frozen refuses plain assignment
_SET_COEFFS, _SET_ORDER = TPoly._coeffs.__set__, TPoly.order.__set__


def basis_monomials(degree: int):
    """Carrier basis: monomials x^i p^j with i + j <= degree, in lex order."""
    if degree < 0:
        raise QuantizeError(f"carrier degree {degree} is negative")
    return [TPoly.monomial(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]


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
        self._table = {}    # (i1, j1, i2, j2) -> terms of rule(x^i1 p^j1, x^i2 p^j2)

    @functools.cached_property
    def precision(self):
        """N_rule, the t-adic order the rule reports on basis monomials."""
        return self.rule(TPoly.monomial(0, 0), TPoly.monomial(0, 0)).order

    def _terms(self, key):
        """rule(m1, m2) on m1 = x^i1 p^j1, m2 = x^i2 p^j2 as (k, i, j, c) terms
        by t-power, tabled.  Every pair must report `precision`, the order
        the table is cut at."""
        w = self.rule(TPoly.monomial(*key[:2]), TPoly.monomial(*key[2:]))
        if w.order != self.precision:
            i1, j1, i2, j2 = key
            raise QuantizeError(
                f"{self.name}: the rule reports {_order_text(w.order)} on "
                f"x^{i1} p^{j1}, x^{i2} p^{j2} but {_order_text(self.precision)} "
                f"on 1, 1")
        terms = self._table[key] = tuple(m + (c,) for m, c in sorted(w._coeffs.items()))
        return terms

    def expand(self, u: TPoly, v: TPoly, limit=None, twist=0) -> TPoly:
        """rule(u, v) + twist * rule(v, u), twist in (0, 1, -1), by
        bilinearity from the table, truncated mod t^limit too: each pair of
        terms reads rule(m1, m2), and rule(m2, m1) too if twist is nonzero."""
        if twist not in (0, 1, -1):
            raise QuantizeError(f"twist {twist!r} is not 0, 1 or -1")
        swaps = (False, True) if twist else (False,)
        table = self._table
        order = _min_order(_min_order(u.order, v.order),
                           _min_order(self.precision, limit))
        cc = {}
        get = cc.get
        for (k1, i1, j1), c1 in u._coeffs.items():
            for (k2, i2, j2), c2 in v._coeffs.items():
                k12, c12 = k1 + k2, c1 * c2
                for swap in swaps:
                    pair = (i2, j2, i1, j1) if swap else (i1, j1, i2, j2)
                    terms = table.get(pair)
                    if terms is None:
                        terms = self._terms(pair)
                    c12s = -c12 if swap and twist < 0 else c12
                    for k, i, j, c in terms:
                        k += k12
                        if order is not None and k >= order:
                            break
                        key = (k, i, j)
                        cc[key] = get(key, 0) + c12s * c
        return TPoly._of({key: c if type(c) is int else exact(c)
                          for key, c in cc.items() if c}, order)

    def __call__(self, u: TPoly, v: TPoly) -> TPoly:
        return self.expand(u, v, self.order)

    def component(self, k: int, u: TPoly, v: TPoly) -> TPoly:
        if not 0 <= k < self.order:
            raise QuantizeError(f"component index {k} outside 0..{self.order - 1}")
        w = self.expand(u, v, k + 1)
        if w.order <= k:
            raise QuantizeError(f"{self.name}: component {k} of a product "
                                f"trusted only mod t^{w.order}")
        return w.t_component(k)

    def commutative_mod_t(self, degree: int) -> bool:
        return satisfies(builtin("free_comm"), (functools.partial(self.component, 0),),
                         degree, 1)[0]

    def is_associative(self, degree: int) -> bool:
        return satisfies(builtin("Ass"), (self,), degree, self.order)[0]


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
        for (k1, i1, j1), v1 in u._coeffs.items():
            for (k2, i2, j2), v2 in v._coeffs.items():
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

    def __init__(self, order: int, dot, br, name="ll", scale=1):
        self.order = order
        self.ops = (dot, br)
        self.scale = exact(scale)
        if not self.scale:
            raise QuantizeError("scale must be nonzero")
        self.name = name

    @property
    def bracket_order(self) -> int:
        """The smaller of `order` and the order the bracket reports on 1, 1."""
        one = TPoly.monomial(0, 0)
        return _min_order(self.order, self.ops[1](one, one).order)

    def dot(self, u: TPoly, v: TPoly) -> TPoly:
        return self.ops[0](u, v).scale(self.scale)

    def br(self, u: TPoly, v: TPoly) -> TPoly:
        return self.ops[1](u, v).scale(self.scale)

    def mutate_bracket(self, m1: tuple, m2: tuple, out: tuple, delta) -> "LLData":
        """Corrupt one structure coefficient of the bracket (antisymmetrised,
        so the result is still a bracket); m1, m2 are (xdeg, pdeg) basis
        monomials and out a (t, x, p) target monomial.  The bump is bilinear
        over Q[t]: on t^k1 m1, t^k2 m2 it is t^(k1 + k2) delta out."""
        m1, m2, bump = tuple(m1), tuple(m2), TPoly({tuple(out): delta})

        def part(u, m):     # the coefficient of m in u, a polynomial in t
            return TPoly({(k[0], 0, 0): c for k, c in u._coeffs.items() if k[1:] == m})

        def br(u, v):
            weight = part(u, m1) * part(v, m2) - part(u, m2) * part(v, m1)
            return self.br(u, v) + weight * bump

        return LLData(self.order, self.dot, br, name=self.name + "+mutation")


def polarize_star(s: StarProduct) -> LLData:
    """Split a star product into (1/sqrt 2)(sym part) and the bracket
    (1/sqrt 2)(antisym part)/t; fails if the product is not commutative
    modulo t."""
    if not s.commutative_mod_t(2):
        raise QuantizeError("not commutative mod t")

    def dot(u, v):
        return s.expand(u, v, s.order, twist=1)

    # dividing by t costs one order of precision unless the rule is exact
    def br(u, v):
        return s.expand(u, v, twist=-1).divide_t()

    return LLData(s.order, dot, br, name=s.name + ".polarized", scale=INV_SQRT2)


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
    """`satisfies` for `builtin("LLq")` on the unscaled operations: dot
    symmetric, br antisymmetric and

        {x,{y,z}} + {y,{z,x}} + {z,{x,y}} = 0           jacobi
        {x, y.z} = {x,y}.z + y.{x,z}                    distributive
        (x.y).z - x.(y.z) = t^2 {y,{x,z}}               associator-defect

    on x <= y <= z, y <= z and x <= z only, as their stabilisers allow."""
    return satisfies(builtin("LLq"), data.ops, degree, data.order,
                     ("jacobi", "distributive", "associator-defect"))


def satisfies(p, ops, degree: int, order: int, names=None):
    """(ok, first failure or None): whether `ops`, one per generator of p,
    are (anti)symmetric as declared on basis pairs and each written relation,
    its coefficients in Q[q] at q = t^2, vanishes on every basis triple mod
    t^order and each term's order plus its power of t.  A relation trusted
    only mod t^0 on (1, 1, 1) raises.  Failures are named by `names` (the
    relation's text by default).  A triple is skipped for r when r's
    stabiliser in Sigma3 (r.g = +-r) maps it to a smaller one with the same
    defect up to sign: the lex-least failing triple is always checked.

    Each operation must be bilinear over Q[t], and the order of op(u, v)
    may depend only on the orders of u and v (a monomial pair that reports
    another order than 1, 1 raises): it is called on each pair of
    coefficient-1 monomials at most once and on a zero of each order an
    inner value g(a, b) has, and f(g(a, b), c) is expanded by bilinearity."""
    if len(ops) != len(p.generators):
        raise QuantizeError(f"{p.name} has {len(p.generators)} generators "
                            f"but {len(ops)} operations were given")
    basis = basis_monomials(degree)
    n = len(basis)
    keys = [next(iter(m._coeffs))[1:] for m in basis]     # (i, j) of x^i p^j
    rels = [(name, terms, _checked_triples(n, stab)) for name, (terms, stab)
            in zip(names or [r.render() for r in p.relations], _compiled(p), strict=True)]
    values = [{} for _ in ops]      # per op: (i1, j1, i2, j2) -> (k, i, j, c) terms
    first = {}                      # per op: the order of its first tabled pair, 1, 1

    def value(f, key):
        w = ops[f](TPoly.monomial(*key[:2]), TPoly.monomial(*key[2:]))
        if first.setdefault(f, w.order) != w.order:
            i1, j1, i2, j2 = key
            raise QuantizeError(f"{p.generators[f].name} reports {_order_text(w.order)} on "
                                f"x^{i1} p^{j1}, x^{i2} p^{j2} but {_order_text(first[f])} "
                                "on 1, 1")
        values[f][key] = terms = tuple(k + (c,) for k, c in sorted(w._coeffs.items()))
        return terms, w

    @functools.cache
    def outer_order(f, inner, left):    # of f(g(a, b), c) or f(c, g(a, b)), at most order
        zero, one = TPoly({}, inner), basis[0]
        return _min_order(order, (ops[f](zero, one) if left else ops[f](one, zero)).order)

    table = [[[value(g, a + b) for b in keys] for a in keys] for g in range(len(ops))]
    # per relation: order, capped by each term's order plus its power of t; every
    # tabled value of g has order first[g], so this holds on every triple
    rels = [(name, terms, checked, min([order] + [
        outer_order(f, first[g], left) + shift
        for f, g, _, _, _, left, coefs in terms for _, shift in coefs]))
        for name, terms, checked in rels]

    def vanishes(terms, top, t):
        cc = {}
        get = cc.get
        for f, g, i, j, l, left, coefs in terms:
            vals, lone = values[f], keys[t[l]]
            for k1, i1, j1, c1 in table[g][t[i]][t[j]][0]:
                key = (i1, j1) + lone if left else lone + (i1, j1)
                w = vals[key] if key in vals else value(f, key)[0]
                for c, shift in coefs:
                    k1s, cw = k1 + shift, c * c1
                    for k2, i2, j2, c2 in w:
                        k = k1s + k2
                        if k >= top:
                            break
                        cc[k, i2, j2] = get((k, i2, j2), 0) + cw * c2
        return not any(cc.values())

    for name, _, _, top in rels:
        if top <= 0:
            raise QuantizeError(f"{name} axiom is trusted only mod t^0 at order {order}")
    for gen, tab in zip(p.generators, table):
        sign = {"comm": -1, "anti": 1}.get(gen.symmetry)     # None: no pairs
        for a, b in itertools.combinations_with_replacement(range(n if sign else 0), 2):
            if not (tab[a][b][1] + tab[b][a][1].scale(sign)).is_zero_mod(order):
                return False, (f"{gen.name} is not {'anti' * (sign == 1)}symmetric "
                               f"on ({basis[a].render()}, {basis[b].render()})")
    for at, t in enumerate(itertools.product(range(n), repeat=3)):
        for name, terms, checked, top in rels:
            if checked[at] and not vanishes(terms, top, t):
                return False, f"{name} fails on ({', '.join(basis[k].render() for k in t)})"
    return True, None


@functools.cache
def _compiled(p):
    """Per written relation of p: its terms (outer and inner generator, the
    inner arguments, the other one, whether the inner one is on the left,
    and (c, 2k) per c q^k of the coefficient) and its stabiliser in Sigma3
    as maps of triple positions."""
    gens = [g.name for g in p.generators]
    out = []
    for r in p.relations:
        terms = []
        for coeff, node in r.terms:
            a, *rest = coeff.c
            if any(rest) or len(a.den) != 1:
                raise QuantizeError(f"{p.name}: coefficient {coeff.render()} is not in Q[q]")
            left = isinstance(node.a, App)
            inner, lone = (node.a, node.b) if left else (node.b, node.a)
            terms.append((gens.index(node.gen), gens.index(inner.gen),
                          VARS.index(inner.a.name), VARS.index(inner.b.name),
                          VARS.index(lone.name), left,
                          tuple((exact(Fraction(k, a.den[0])), 2 * e)
                                for e, k in enumerate(a.num) if k)))
        vec = relation_vector(p.shape, r)
        signed = (vec, tuple(-c for c in vec))
        out.append((tuple(terms), tuple((g[1] - 1, g[2] - 1, g[3] - 1) for g in SIGMA3
                                        if right_action(p.shape, vec, g) in signed)))
    return tuple(out)


@functools.cache
def _checked_triples(n: int, stab):
    """Per triple of range(n) in lex order, whether no g in stab lowers it."""
    return bytes(all((t[g[0]], t[g[1]], t[g[2]]) >= t for g in stab)
                 for t in itertools.product(range(n), repeat=3))


def classical_limit(s: StarProduct):
    """The t-free Poisson algebra u *_0 v, u *_1 v - v *_1 u (`Poiss_polarized`)."""

    def br0(u, v):
        return s.component(1, u, v) - s.component(1, v, u)

    return functools.partial(s.component, 0), br0
