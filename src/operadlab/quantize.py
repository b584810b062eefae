"""Deformation-quantization workbench on a truncated polynomial carrier.

The carrier is the polynomial algebra Q[x, p]; test elements are the
monomials of total degree <= D (default 4).  Elements of the deformed
algebra are polynomials in x, p and the formal parameter t with
coefficients in the scalar tower (the normalisations need sqrt 2).
Products of carrier elements are computed exactly in the full
polynomial ring, so every algebraic identity checked here is exact;
the degree bound only caps the set of probed basis elements, and the
order N truncates powers of t.

The star product of the worked example is the standard-ordered
expansion u * v = sum_k (t^k / k!) (d_p^k u)(d_x^k v), which is exactly
associative and commutative mod t.  Its symmetric/antisymmetric parts,
with the antisymmetric part divided by t, give the commutative product
and degree-lowered bracket whose compatibility conditions (with the
deformation parameter entering as t^2) are checked by `check_LL`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .scalar import as_scalar, SC0, INV_SQRT2


class QuantizeError(ValueError):
    pass


def _min_order(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class TPoly:
    """Polynomial in x, p and t over the scalar tower.

    coeffs maps (t_power, x_power, p_power) -> Scalar.  `order` is the
    t-adic precision: None means exact, an integer N means the
    coefficients are only trusted modulo t^N.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs=None, order=None):
        cc = {}
        for key, v in (coeffs or {}).items():
            v = as_scalar(v)
            if order is not None and key[0] >= order:
                continue
            if v:
                cc[tuple(key)] = v
        object.__setattr__(self, "coeffs", cc)
        object.__setattr__(self, "order", order)

    def __setattr__(self, *a):
        raise AttributeError("TPoly is immutable")

    @classmethod
    def monomial(cls, xdeg: int, pdeg: int, coeff=1) -> "TPoly":
        return cls({(0, xdeg, pdeg): as_scalar(coeff)})

    @classmethod
    def zero(cls) -> "TPoly":
        return cls()

    def __add__(self, other):
        cc = dict(self.coeffs)
        for k, v in other.coeffs.items():
            cc[k] = cc.get(k, SC0) + v
        return TPoly(cc, _min_order(self.order, other.order))

    def __neg__(self):
        return TPoly({k: -v for k, v in self.coeffs.items()}, self.order)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s) -> "TPoly":
        s = as_scalar(s)
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
                cc[key] = cc.get(key, SC0) + v1 * v2
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
        return TPoly({(k + power, i, j): v
                      for (k, i, j), v in self.coeffs.items()}, order)

    def divide_t(self) -> "TPoly":
        if any(k == 0 for k, _, _ in self.coeffs):
            raise QuantizeError("not divisible by t")
        order = None if self.order is None else self.order - 1
        return TPoly({(k - 1, i, j): v
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
            parts.append(f"({v.render()})*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"TPoly({self.render()})"


def basis_monomials(degree: int):
    """Carrier basis: monomials x^i p^j with i + j <= degree."""
    return [TPoly.monomial(i, j)
            for i, j in sorted((i, j) for i in range(degree + 1)
                               for j in range(degree + 1 - i))]


# ---------------------------------------------------------------------------
# star products
# ---------------------------------------------------------------------------

class StarProduct:
    """An order-N deformation of a commutative product, given by a bilinear
    rule on the carrier.  The per-order components *_0, ..., *_{N-1} are
    exposed via `component`; `structure_tensor` materialises one of them on
    the degree-D basis."""

    def __init__(self, order: int, rule, name="star"):
        if order < 1:
            raise QuantizeError("order must be >= 1")
        self.order = order
        self.rule = rule
        self.name = name

    def __call__(self, u: TPoly, v: TPoly) -> TPoly:
        return self.rule(u, v).truncated(self.order)

    def component(self, k: int, u: TPoly, v: TPoly) -> TPoly:
        if not 0 <= k < self.order:
            raise QuantizeError(f"component index {k} outside 0..{self.order - 1}")
        return self.rule(u, v).t_component(k)

    def structure_tensor(self, k: int, degree: int):
        basis = basis_monomials(degree)
        out = {}
        for a, u in enumerate(basis):
            for b, v in enumerate(basis):
                w = self.component(k, u, v)
                if not w.is_zero_mod():
                    out[(a, b)] = w
        return out

    def commutative_mod_t(self, degree: int) -> bool:
        basis = basis_monomials(degree)
        return all(self.component(0, u, v).eq_mod(self.component(0, v, u))
                   for u, v in itertools.combinations(basis, 2))

    def associativity_defect(self, u, v, w) -> TPoly:
        return (self(self(u, v), w) - self(u, self(v, w))).truncated(self.order)

    def is_associative(self, degree: int) -> bool:
        basis = basis_monomials(degree)
        return all(self.associativity_defect(u, v, w).is_zero_mod(self.order)
                   for u, v, w in itertools.product(basis, repeat=3))


def moyal_star(order: int = 4) -> StarProduct:
    """Standard-ordered star product: sum_k (t^k/k!) (d_p^k u)(d_x^k v).

    The sum is finite on polynomials, so values are exact; associativity
    holds on the nose (it mirrors operator composition in the standard
    ordering), and the t^0 part is plain multiplication.  On monomial
    pairs the k-th term carries the falling-factorial weight
    (j1)_k (i2)_k / k!.
    """

    def rule(u: TPoly, v: TPoly) -> TPoly:
        cc = {}
        tail = _min_order(u.order, v.order)
        for (k1, i1, j1), v1 in u.coeffs.items():
            for (k2, i2, j2), v2 in v.coeffs.items():
                w = v1 * v2
                f = Fraction(1)
                kmin = min(j1, i2)
                for k in range(kmin + 1):
                    if k:
                        f *= Fraction((j1 - k + 1) * (i2 - k + 1), k)
                    kt = k1 + k2 + k
                    if tail is not None and kt >= tail:
                        break
                    key = (kt, i1 + i2 - k, j1 + j2 - k)
                    prev = cc.get(key)
                    term = w * f
                    cc[key] = term if prev is None else prev + term
        return TPoly(cc, tail)

    return StarProduct(order, rule, name="moyal")


# ---------------------------------------------------------------------------
# the polarized data: commutative product plus degree-one bracket
# ---------------------------------------------------------------------------

class LLData:
    """Commutative product `dot` and antisymmetric bracket `br` on the
    carrier, with the bracket trusted modulo t^bracket_order."""

    def __init__(self, order: int, dot, br, bracket_order=None, name="ll"):
        self.order = order
        self.dot = dot
        self.br = br
        self.bracket_order = order if bracket_order is None else bracket_order
        self.name = name

    def validate_symmetry(self, degree: int) -> bool:
        basis = basis_monomials(degree)
        for u, v in itertools.combinations_with_replacement(basis, 2):
            if not (self.dot(u, v) - self.dot(v, u)).is_zero_mod(self.order):
                return False
            if not (self.br(u, v) + self.br(v, u)).is_zero_mod(self.bracket_order):
                return False
        return True

    def mutate_bracket(self, m1: tuple, m2: tuple, out: tuple, delta) -> "LLData":
        """Corrupt one structure coefficient of the bracket (antisymmetrised,
        so the result is still a bracket); m1, m2 are (xdeg, pdeg) basis
        monomials and out a (t, x, p) target monomial."""
        delta = as_scalar(delta)
        base = self.br

        def coeff_of(u: TPoly, mono):
            return u.coeffs.get((0,) + tuple(mono), SC0)

        def br(u, v):
            bump = coeff_of(u, m1) * coeff_of(v, m2) - coeff_of(u, m2) * coeff_of(v, m1)
            extra = TPoly({tuple(out): bump * delta})
            return base(u, v) + extra

        return LLData(self.order, self.dot, br, self.bracket_order,
                      name=self.name + "+mutation")


def polarize_star(s: StarProduct) -> LLData:
    """Split a star product into (1/sqrt 2)(sym part) and the bracket
    (1/sqrt 2)(antisym part)/t; fails if the product is not commutative
    modulo t."""
    probe = basis_monomials(2)
    order = None    # the t-adic precision the rule reports on the probes
    for u, v in itertools.combinations(probe, 2):
        uv, vu = s.rule(u, v), s.rule(v, u)
        if not uv.t_component(0).eq_mod(vu.t_component(0)):
            raise QuantizeError("not commutative mod t")
        order = _min_order(order, _min_order(uv.order, vu.order))

    def dot(u, v):
        return (s.rule(u, v) + s.rule(v, u)).scale(INV_SQRT2).truncated(s.order)

    def br(u, v):
        anti = (s.rule(u, v) - s.rule(v, u)).scale(INV_SQRT2)
        return anti.divide_t()

    # dividing by t costs one order of precision unless the rule is exact
    border = s.order if order is None else min(s.order, order - 1)
    return LLData(s.order, dot, br, bracket_order=border, name=s.name + ".polarized")


def star_from_LL(data: LLData, check: bool = True, degree: int = 4) -> StarProduct:
    """Assemble u * v = (1/sqrt 2)(u . v + t {u, v}) from the data."""
    if check:
        ok, failure = check_LL(data, degree=degree)
        if not ok:
            raise QuantizeError(f"input fails the compatibility axioms: {failure}")

    def rule(u, v):
        return (data.dot(u, v) + data.br(u, v).times_t()).scale(INV_SQRT2)

    return StarProduct(data.order, rule, name=data.name + ".star")


def check_LL(data: LLData, degree: int = 4, report_first_failure: bool = True):
    """The three compatibility axioms with the deformation parameter t^2,
    on every triple of carrier basis monomials:

        {x,{y,z}} + {y,{z,x}} + {z,{x,y}} = 0
        {x, y.z} = {x,y}.z + y.{x,z}
        (x.y).z - x.(y.z) = t^2 {y,{x,z}}

    Bracket-only axioms are verified to the bracket's own precision; the
    last one modulo t^order.  Returns (ok, first_failure_description).
    """
    dot, br = data.dot, data.br
    n_dot, n_br = data.order, min(data.order, data.bracket_order)
    basis = basis_monomials(degree)
    n = len(basis)
    dotP = [[dot(u, v) for v in basis] for u in basis]
    brP = [[br(u, v) for v in basis] for u in basis]
    for a in range(n):
        xx = basis[a]
        for b in range(n):
            yy = basis[b]
            for c in range(n):
                zz = basis[c]
                # the jacobi defect is invariant under cyclic relabelling
                if a <= b and a <= c:
                    jac = (br(xx, brP[b][c]) + br(yy, brP[c][a])
                           + br(zz, brP[a][b]))
                    if not jac.is_zero_mod(n_br):
                        return (False, _fail("jacobi", xx, yy, zz)
                                if report_first_failure else None)
                # the distributive defect is symmetric in the last two slots
                if b <= c:
                    dist = (br(xx, dotP[b][c]) - dot(brP[a][b], zz)
                            - dot(yy, brP[a][c]))
                    if not dist.is_zero_mod(n_br):
                        return (False, _fail("distributive", xx, yy, zz)
                                if report_first_failure else None)
                a3 = (dot(dotP[a][b], zz) - dot(xx, dotP[b][c])
                      - br(yy, brP[a][c]).times_t(2))
                if not a3.is_zero_mod(min(n_dot, n_br + 2)):
                    return (False, _fail("associator-defect", xx, yy, zz)
                            if report_first_failure else None)
    return True, None


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
    """Poisson axioms for a classical limit, exactly (no t anywhere)."""
    basis = basis_monomials(degree)
    for u, v in itertools.combinations(basis, 2):
        if not (dot0(u, v) - dot0(v, u)).is_zero_mod():
            return False
        if not (br0(u, v) + br0(v, u)).is_zero_mod():
            return False
    for u, v, w in itertools.product(basis, repeat=3):
        if not (dot0(dot0(u, v), w) - dot0(u, dot0(v, w))).is_zero_mod():
            return False
        jac = br0(u, br0(v, w)) + br0(v, br0(w, u)) + br0(w, br0(u, v))
        if not jac.is_zero_mod():
            return False
        leib = br0(u, dot0(v, w)) - dot0(br0(u, v), w) - dot0(v, br0(u, w))
        if not leib.is_zero_mod():
            return False
    return True
