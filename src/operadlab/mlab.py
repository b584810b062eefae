"""Finite-dimensional laboratory for signed insertion compositions of
multilinear maps.

A MultiMap is an exact tensor in Lin(V^(x)m, V^(x)n) over the rationals,
stored sparsely as {code: coefficient}: the code of an entry reads its n
output and then m input indices as the digits of one base-d integer, most
significant first.  The codes are all a map keeps.  `coeffs` is a fresh
read-only view keyed by (out_index_tuple, in_index_tuple), decoded from
the codes on each access, so a caller that reads it in a loop binds it
once.  Every coefficient is nonzero and kept in its smallest exact type by
`_exact`: an int when it is integral, else a Fraction, so integer maps
compose in int arithmetic (`==` and `hash` agree across 3 and
Fraction(3)).  The public constructor drops zeros, checks the shape and
index range of the keys left and keeps only their codes; every map this
module computes from given maps (a sum, a multiple, a composition, a
defect) is built from codes by `_built`, which skips that check.  A map is
immutable through `scalar.Frozen`, which also makes copy, deepcopy and
pickle work.

The partial composition comp_ij plugs the j-th output of g into the i-th
input of f; the remaining lines keep their blocks in place:

    inputs  = (f-inputs 1..i-1,  g-inputs,  f-inputs i+1..b)
    outputs = (g-outputs 1..j-1, f-outputs, g-outputs j+1..c)

It splits each f code once into its i-th input digit x and f_part, its
other digits at their places in the result, and each g code into its j-th
output digit y and g_part; with g bucketed by y, the code of the term of an
f and a g entry with x = y is the integer f_part + g_part.

The signed total composition is

    f o g = sum over i <= b, j <= c of (-1)^(i(b+1) + j(c+1)) f comp_ij g

for f with b inputs and g with c outputs.  circ, circ_plain and
alternating_associator_sum add their signed terms into one code dict and
build one MultiMap from it at the end.

The alternating sum of the associator over the six orders of (f, g, h) is
the Jacobiator [[f,g],h] + [[g,h],f] + [[h,f],g] of the commutator
[x,y] = x o y - y o x whenever o is bilinear, as circ and circ_plain are:
it vanishes exactly where o is Lie-admissible, and it costs 12
compositions instead of the six associators' 18.  The axiom defects stay
on the tuple view on purpose: an oracle that shares no digit arithmetic
with comp_ij, for the master equation to be checked against.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import reduce
from math import isfinite
from types import MappingProxyType

from .scalar import Frozen


class MultiMapError(ValueError):
    pass


def _exact(v):
    """v (an int, Fraction or finite float) as an int if integral, else a Fraction."""
    if type(v) is not int:
        if not (isinstance(v, (int, Fraction))
                or isinstance(v, float) and isfinite(v)):
            raise MultiMapError(f"coefficient {v!r} is not an int, Fraction or finite float")
        v = Fraction(v)
        if v.denominator == 1:
            return v.numerator
    return v


class MultiMap(Frozen):
    """Exact multilinear map with m inputs and n outputs on a d-dim space."""

    __slots__ = ("d", "m", "n", "_codes")

    def __new__(cls, d: int, m: int, n: int, coeffs=None):
        if d < 1 or m < 1 or n < 1:
            raise MultiMapError("base dimension and arities must be >= 1")
        cc = _nonzero(coeffs or {})
        _check_keys(cc, d, m, n)
        return _built(d, m, n, _encoded(cc, d))

    def __getnewargs__(self):
        return self.d, self.m, self.n

    @property
    def coeffs(self):
        """A new read-only view {(outputs, inputs): coefficient}."""
        d, n = self.d, self.n
        places = [d ** p for p in reversed(range(self.m + n))]
        view = {}
        for code, v in self._codes.items():
            key = tuple(code // p % d for p in places)
            view[key[:n], key[n:]] = v
        return MappingProxyType(view)

    # -- constructors

    @classmethod
    def identity(cls, d: int) -> "MultiMap":
        return cls(d, 1, 1, {((k,), (k,)): 1 for k in range(d)})

    @classmethod
    def random(cls, rng: random.Random, d: int, m: int, n: int) -> "MultiMap":
        """Coefficients drawn uniformly from -3..3."""
        cc = {}
        for out in itertools.product(range(d), repeat=n):
            for inp in itertools.product(range(d), repeat=m):
                cc[(out, inp)] = rng.randint(-3, 3)
        return cls(d, m, n, cc)

    # -- vector-space structure

    def _plus(self, other, s):
        """self + s * other for a map other of the same shape."""
        _check_maps(other)
        if (self.d, self.m, self.n) != (other.d, other.m, other.n):
            raise MultiMapError("shape mismatch")
        cc = dict(self._codes)
        _accumulate(cc, other._codes, s)
        return _built(self.d, self.m, self.n, cc)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, s) -> "MultiMap":
        s = _exact(s)
        return _built(self.d, self.m, self.n,
                      {k: s * v for k, v in self._codes.items()})

    def __mul__(self, s):
        return self.scale(s)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self._codes

    def __eq__(self, other):
        return (isinstance(other, MultiMap)
                and (self.d, self.m, self.n) == (other.d, other.m, other.n)
                and self._codes == other._codes)

    def __hash__(self):
        return hash((self.d, self.m, self.n, frozenset(self._codes.items())))

    def __repr__(self):
        return f"MultiMap(d={self.d}, {self.m}->{self.n}, {len(self._codes)} entries)"


# the slot descriptors' setters: Frozen refuses plain assignment
_SET_D, _SET_M, _SET_N, _SET_CODES = (
    getattr(MultiMap, slot).__set__ for slot in MultiMap.__slots__)


def _built(d: int, m: int, n: int, codes: dict) -> MultiMap:
    """The MultiMap of the nonzero entries of a code dict, without
    `_check_keys`: for results whose digits come from checked MultiMaps."""
    mm = object.__new__(MultiMap)
    _SET_D(mm, d)
    _SET_M(mm, m)
    _SET_N(mm, n)
    _SET_CODES(mm, _nonzero(codes))
    return mm


def _nonzero(coeffs) -> dict:
    """The nonzero entries of coeffs, each made exact by `_exact`."""
    cc = {}
    for key, v in coeffs.items():
        if type(v) is not int:
            v = _exact(v)
        if v:
            cc[key] = v
    return cc


def _encoded(cc: dict, d: int) -> dict:
    """cc with each (outputs, inputs) key, of indices in range(d), as its code."""
    return {reduce(lambda code, x: code * d + x, o + i, 0): v for (o, i), v in cc.items()}


def _check_maps(*maps) -> None:
    for x in maps:
        if not isinstance(x, MultiMap):
            raise MultiMapError("expected a MultiMap")


def _check_keys(cc: dict, d: int, m: int, n: int) -> None:
    """Every key of cc must be (outputs, inputs): tuples of n and m indices
    in range(d).  Each distinct index tuple is checked once."""
    span = set(range(d))
    for what, tuples, size in (("output", {o for o, _ in cc}, n),
                               ("input", {i for _, i in cc}, m)):
        for t in tuples:
            if type(t) is not tuple or len(t) != size:
                raise MultiMapError(f"index shape mismatch: {what} {t!r}, "
                                    f"expected {size} indices")
            if not span.issuperset(t):
                raise MultiMapError(f"index out of range: {what} {t!r}, "
                                    f"expected indices in 0..{d - 1}")


def _accumulate(acc: dict, coeffs: dict, s) -> None:
    """acc += s * coeffs, entry by entry (zeros are dropped later, when a
    MultiMap is built from acc)."""
    get = acc.get
    for k, v in coeffs.items():
        acc[k] = get(k, 0) + s * v


# ---------------------------------------------------------------------------
# insertion compositions
# ---------------------------------------------------------------------------

def comp_ij(f: MultiMap, g: MultiMap, i: int, j: int) -> MultiMap:
    """Plug the j-th output of g into the i-th input of f (1-based)."""
    _check_maps(f, g)
    if f.d != g.d:
        raise MultiMapError("base dimensions differ")
    b, a = f.m, f.n
    dd, c = g.m, g.n
    if not 1 <= i <= b:
        raise MultiMapError(f"input index {i} out of range 1..{b}")
    if not 1 <= j <= c:
        raise MultiMapError(f"output index {j} out of range 1..{c}")
    d = f.d
    # at_X is the place value of block X in a result code, whose blocks are
    # f-inputs i+1..b (at 1), g-inputs, f-inputs 1..i-1, g-outputs j+1..c,
    # f-outputs and g-outputs 1..j-1
    f_tail, g_in, f_head, g_tail = d ** (b - i), d ** dd, d ** (i - 1), d ** (c - j)
    at_f_head = f_tail * g_in
    at_g_tail = at_f_head * f_head
    at_f_out = at_g_tail * g_tail
    at_g_head = at_f_out * d ** a
    by_y = {}
    for code, cg in g._codes.items():
        rest, ins = divmod(code, g_in)
        rest, tail = divmod(rest, g_tail)
        head, y = divmod(rest, d)
        g_part = ins * f_tail + tail * at_g_tail + head * at_g_head
        by_y.setdefault(y, []).append((g_part, cg))
    cc = {}
    get = cc.get
    for code, cf in f._codes.items():
        rest, tail = divmod(code, f_tail)
        rest, x = divmod(rest, d)
        outs, head = divmod(rest, f_head)
        f_part = tail + head * at_f_head + outs * at_f_out
        for g_part, cg in by_y.get(x, ()):
            key = f_part + g_part
            cc[key] = get(key, 0) + cf * cg
    return _built(d, b + dd - 1, a + c - 1, cc)


def insertion_sign(i: int, b: int, j: int, c: int) -> int:
    return -1 if (i * (b + 1) + j * (c + 1)) % 2 else 1


def _insertion_sum(f: MultiMap, g: MultiMap, signed: bool) -> MultiMap:
    _check_maps(f, g)
    b, c = f.m, g.n
    acc = {}
    for i in range(1, b + 1):
        for j in range(1, c + 1):
            s = insertion_sign(i, b, j, c) if signed else 1
            _accumulate(acc, comp_ij(f, g, i, j)._codes, s)
    return _built(f.d, b + g.m - 1, f.n + c - 1, acc)


def circ(f: MultiMap, g: MultiMap) -> MultiMap:
    """The signed double sum over all insertions.

    With these signs the self-composition of a (2 -> 1) map is minus its
    associator and that of a (1 -> 2) map is its coassociator defect, which
    is what the master equation needs.
    """
    return _insertion_sum(f, g, signed=True)


def circ_plain(f: MultiMap, g: MultiMap) -> MultiMap:
    """The unsigned insertion sum.

    Under this composition the single-output maps form a (right-symmetric)
    pre-Lie algebra and the single-input maps a (left-symmetric) Vinberg
    algebra, in the plain ungraded sense; the signed sum satisfies neither.
    """
    return _insertion_sum(f, g, signed=False)


def bracket(f: MultiMap, g: MultiMap) -> MultiMap:
    return circ(f, g) - circ(g, f)


def circ_associator(f: MultiMap, g: MultiMap, h: MultiMap,
                    compose=None) -> MultiMap:
    compose = compose or circ
    return compose(compose(f, g), h) - compose(f, compose(g, h))


def alternating_associator_sum(f: MultiMap, g: MultiMap, h: MultiMap,
                               compose=None) -> MultiMap:
    """Alternating sum of the composition associator over all argument
    orders (zero iff the composition is Lie-admissible on these inputs).

    compose must be bilinear (circ and circ_plain are): the sum is then the
    Jacobiator [[f,g],h] + [[g,h],f] + [[h,f],g] of the commutator
    [x,y] = compose(x, y) - compose(y, x), which takes 12 compositions."""
    compose = compose or circ
    acc = {}
    for x, y, z in ((f, g, h), (g, h, f), (h, f, g)):
        xy = compose(x, y) - compose(y, x)
        _accumulate(acc, compose(xy, z)._codes, 1)
        _accumulate(acc, compose(z, xy)._codes, -1)
    return _built(f.d, f.m + g.m + h.m - 2, f.n + g.n + h.n - 2, acc)


# ---------------------------------------------------------------------------
# the master equation for an algebra/coalgebra pair
# ---------------------------------------------------------------------------

def master_residual(mu: MultiMap, delta: MultiMap) -> dict:
    """Graded components of the self-bracket of mu + delta.

    mu must be a (2 -> 1) map and delta a (1 -> 2) map; both are odd, so
    the self-bracket is twice the signed self-composition and splits into
    the (3 -> 1), (2 -> 2) and (1 -> 3) pieces returned here.
    """
    _check_pair(mu, delta)
    return {
        (3, 1): circ(mu, mu).scale(2),
        (2, 2): (circ(mu, delta) + circ(delta, mu)).scale(2),
        (1, 3): circ(delta, delta).scale(2),
    }


def master_residual_is_zero(mu: MultiMap, delta: MultiMap) -> bool:
    return all(t.is_zero() for t in master_residual(mu, delta).values())


def _check_pair(mu, delta) -> None:
    """mu must be a (2 -> 1) map and delta a (1 -> 2) map on the same space
    (either may be None, to check only the other)."""
    for x, name, shape in ((mu, "mu", (2, 1)), (delta, "delta", (1, 2))):
        if x is not None:
            _check_maps(x)
            if (x.m, x.n) != shape:
                raise MultiMapError(f"{name} must be a ({shape[0]} -> {shape[1]}) map")
    if mu is not None and delta is not None and mu.d != delta.d:
        raise MultiMapError("base dimensions differ")


# -- the independent axiom oracle (direct tensor contractions) --------------

def assoc_defect(mu: MultiMap) -> MultiMap:
    """mu(mu(a,b),c) - mu(a,mu(b,c)) as a (3 -> 1) tensor."""
    _check_pair(mu, None)
    d, mus = mu.d, mu.coeffs.items()
    cc = {}
    for (o1, (s, cidx)), c1 in mus:
        for (o2, (aidx, bidx)), c2 in mus:
            if o2[0] == s:
                key = (o1, (aidx, bidx, cidx))
                cc[key] = cc.get(key, 0) + c1 * c2
    for (o1, (aidx, s)), c1 in mus:
        for (o2, (bidx, cidx)), c2 in mus:
            if o2[0] == s:
                key = (o1, (aidx, bidx, cidx))
                cc[key] = cc.get(key, 0) - c1 * c2
    return _built(d, 3, 1, _encoded(cc, d))


def coassoc_defect(delta: MultiMap) -> MultiMap:
    """(delta x id)delta - (id x delta)delta as a (1 -> 3) tensor."""
    _check_pair(None, delta)
    d, deltas = delta.d, delta.coeffs.items()
    cc = {}
    for ((s, w3), (a,)), c1 in deltas:
        for ((w1, w2), (t,)), c2 in deltas:
            if t == s:
                key = ((w1, w2, w3), (a,))
                cc[key] = cc.get(key, 0) + c1 * c2
    for ((w1, s), (a,)), c1 in deltas:
        for ((w2, w3), (t,)), c2 in deltas:
            if t == s:
                key = ((w1, w2, w3), (a,))
                cc[key] = cc.get(key, 0) - c1 * c2
    return _built(d, 1, 3, _encoded(cc, d))


def compatibility_defect(mu: MultiMap, delta: MultiMap) -> MultiMap:
    """delta(mu(u,v)) - u_(1) (x) mu(u_(2), v) - mu(u, v_(1)) (x) v_(2)."""
    _check_pair(mu, delta)
    d, mus, deltas = mu.d, mu.coeffs.items(), delta.coeffs.items()
    cc = {}
    for ((w1, w2), (s,)), c1 in deltas:
        for ((t,), (uu, vv)), c2 in mus:
            if t == s:
                key = ((w1, w2), (uu, vv))
                cc[key] = cc.get(key, 0) + c1 * c2
    for ((u1, u2), (uu,)), c1 in deltas:
        for ((t,), (s, vv)), c2 in mus:
            if s == u2:
                key = ((u1, t), (uu, vv))
                cc[key] = cc.get(key, 0) - c1 * c2
    for ((v1, v2), (vv,)), c1 in deltas:
        for ((t,), (uu, s)), c2 in mus:
            if s == v1:
                key = ((t, v2), (uu, vv))
                cc[key] = cc.get(key, 0) - c1 * c2
    return _built(d, 2, 2, _encoded(cc, d))


def infinitesimal_bialgebra_axioms(mu: MultiMap, delta: MultiMap):
    """The three axiom tensors (associativity, coassociativity,
    compatibility), computed by direct contraction."""
    _check_pair(mu, delta)
    return assoc_defect(mu), coassoc_defect(delta), compatibility_defect(mu, delta)
