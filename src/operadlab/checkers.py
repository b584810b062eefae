"""Decision procedures on compiled presentations.

Cyclicity is invariance of the relation space under the 4-cycle action;
dihedrality is decided twice (invariance under the left involution, and
the even/odd-part splitting criterion) and the two methods must agree.
Hopf existence is decided inside the counital normalized family

    Delta(m) = m (x) m  -  B {(m - m~) (x) (m - m~)},

the only shape a coassociative counital diagonal can take: the induced
arity-3 map into the tensor square of the quotient must kill the
relations, which collects polynomial constraints on B that are solved
exactly over the coefficient tower.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .scalar import Scalar, RatFunc, as_scalar, SC0, SC1, pmul, _rational_sqrt
from . import free3
from .free3 import (EShape, Subspace, GAMMA3, SlotMap, gamma_plus_split,
                    left_lambda)
from .presentation import (Presentation, RelationExpr, relation_vector,
                           App, Var, PresentationError)


class CheckerError(ValueError):
    pass


class InternalInconsistencyError(AssertionError):
    """The two dihedrality methods disagreed: an implementation bug."""


# ---------------------------------------------------------------------------
# cyclicity and dihedrality
# ---------------------------------------------------------------------------

def check_cyclic(p: Presentation) -> bool:
    """R preserved by the generator of the cyclic extension."""
    return p.R.is_invariant(p.shape.action(GAMMA3))


def check_dihedral(p: Presentation) -> bool:
    """R preserved by the left involution; cross-checked against the
    splitting R = (R ∩ Γ+) ⊕ (R ∩ Γ-)."""
    by_lambda = p.R.is_invariant(lambda v: left_lambda(p.shape, v))
    gp, gm = gamma_plus_split(p.shape)
    rp = p.R.intersect(gp)
    rm = p.R.intersect(gm)
    by_split = (rp.dim + rm.dim) == p.R.dim
    if by_lambda != by_split:
        raise InternalInconsistencyError(
            f"dihedral methods disagree on {p.name}: "
            f"lambda-invariance={by_lambda}, splitting={by_split}")
    return by_lambda


# ---------------------------------------------------------------------------
# polynomials in the diagonal parameter B over the scalar tower
# ---------------------------------------------------------------------------

class BPoly:
    """Dense univariate polynomial in the unknown diagonal coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [as_scalar(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("BPoly is immutable")

    @classmethod
    def const(cls, s) -> "BPoly":
        return cls([s])

    @classmethod
    def unknown(cls) -> "BPoly":
        return cls([SC0, SC1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        other = _as_bpoly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return BPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return BPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_as_bpoly(other))

    def __mul__(self, other):
        other = _as_bpoly(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _BP0
        out = [SC0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x.is_zero():
                continue
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
        return BPoly(out)

    __rmul__ = __mul__

    def __call__(self, value: Scalar) -> Scalar:
        acc = SC0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __eq__(self, other):
        other = _as_bpoly(other)
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def render(self, var: str = "B") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c.is_zero():
                continue
            if k == 0:
                parts.append(f"({c.render()})")
            else:
                pw = var if k == 1 else f"{var}^{k}"
                parts.append(pw if c == SC1 else f"({c.render()})*{pw}")
        return " + ".join(parts)

    def __repr__(self):
        return f"BPoly({self.render()})"


def _as_bpoly(x):
    if isinstance(x, BPoly):
        return x
    return BPoly.const(as_scalar(x))


_BP0 = BPoly([])
_BP1 = BPoly([SC1])


# ---------------------------------------------------------------------------
# diagonals on the free operad with one type-(3) generator
# ---------------------------------------------------------------------------

_T3 = EShape([("m", "none")])


class DiagonalCandidate(NamedTuple):
    """Coefficients of Delta(m) = A m(x)m + B m(x)m~ + C m~(x)m + D m~(x)m~;
    entries may be BPoly in the unknown parameter."""

    a: BPoly
    b: BPoly
    c: BPoly
    d: BPoly

    @classmethod
    def numeric(cls, a, b, c, d) -> "DiagonalCandidate":
        return cls(*(BPoly.const(as_scalar(x)) for x in (a, b, c, d)))

    @classmethod
    def normalized_family(cls) -> "DiagonalCandidate":
        """The counital family: A = 1 - B, C = B, D = -B with B unknown."""
        B = BPoly.unknown()
        return cls(_BP1 - B, B, B, -B)

    def at(self, value) -> "DiagonalCandidate":
        value = as_scalar(value)
        return DiagonalCandidate(*(BPoly.const(p(value)) for p in self))

    def is_numeric(self) -> bool:
        return all(p.degree <= 0 for p in self)


def _delta2_table(d: DiagonalCandidate):
    a, b, c, dd = d
    return {
        0: ((a, (0, 0)), (b, (0, 1)), (c, (1, 0)), (dd, (1, 1))),
        1: ((a, (1, 1)), (b, (1, 0)), (c, (0, 1)), (dd, (0, 0))),
    }


def _delta3(shape: EShape, tbl, idx: int):
    """Image of a basis monomial under the induced map into the tensor
    square: list of (coeff, (i1, i2))."""
    f, g, l = shape.basis_triple(idx)
    out = []
    for cf, (f1, f2) in tbl[f]:
        for cg, (g1, g2) in tbl[g]:
            out.append((cf * cg, (shape.index(f1, g1, l), shape.index(f2, g2, l))))
    return out


def check_coassoc(d: DiagonalCandidate) -> bool:
    """Coassociativity of the induced maps on the arity-3 component of the
    free operad on one type-(3) generator."""
    if not d.is_numeric():
        raise CheckerError("check_coassoc expects numeric coefficients")
    shape = _T3
    tbl = _delta2_table(d)
    n = shape.basis_size
    d3 = [_delta3(shape, tbl, i) for i in range(n)]
    for w in range(n):
        lhs, rhs = {}, {}
        for c, (i, j) in d3[w]:
            for c2, (i1, i2) in d3[i]:
                k = (i1, i2, j)
                lhs[k] = lhs.get(k, _BP0) + c * c2
            for c2, (j1, j2) in d3[j]:
                k = (i, j1, j2)
                rhs[k] = rhs.get(k, _BP0) + c * c2
        keys = set(lhs) | set(rhs)
        if any(lhs.get(k, _BP0) != rhs.get(k, _BP0) for k in keys):
            return False
    return True


def check_counit(d: DiagonalCandidate) -> bool:
    """(e ⊗ id)Δ = (id ⊗ e)Δ = id with the normalized projection counit:
    A+C = 1, B+D = 0, A+B = 1, C+D = 0."""
    if not d.is_numeric():
        raise CheckerError("check_counit expects numeric coefficients")
    a, b, c, dd = (p(SC0) for p in d)
    one, zero = SC1, SC0
    return (a + c == one and b + dd == zero and a + b == one and c + dd == zero)


def coassoc_family(d: DiagonalCandidate) -> str | None:
    """Which of the four coassociative families (i)-(iv) the numeric
    candidate belongs to, or None."""
    a, b, c, dd = (p(SC0) for p in d)
    z = SC0
    if dd == z and c == z and a == b:
        return "i"
    if b == c and b == -dd:
        return "ii"
    if dd == z and b == z and a == c:
        return "iii"
    if a == b == c == dd:
        return "iv"
    return None


# ---------------------------------------------------------------------------
# Hopf analysis
# ---------------------------------------------------------------------------

class HopfResult(NamedTuple):
    verdict: str                 # none | unique | all
    witness: object = None       # Scalar (type 3), dict (type 1), or None
    diagnostic: str | None = None

    def witness_str(self) -> str | None:
        if self.witness is None:
            return None
        if isinstance(self.witness, Scalar):
            return self.witness.render()
        return str(self.witness)


def hopf_analyze(p: Presentation) -> HopfResult:
    """Existence of a coassociative counital diagonal on Γ(E)/(R).

    Accepts presentations generated by a single operation: one generator of
    any symmetry type, or the polarized form of a type-(3) operation (exactly
    one commutative and one anticommutative generator), which is depolarized
    internally.
    """
    syms = [g.symmetry for g in p.generators]
    if syms == ["anti"]:
        return HopfResult("none", None,
                          "the only equivariant counit on an anticommutative "
                          "generator is the zero map")
    if syms == ["comm"]:
        return _hopf_comm(p)
    if syms == ["none"]:
        return _hopf_type3(p.shape, p.R)
    if sorted(syms) == ["anti", "comm"]:
        comm = next(g.name for g in p.generators if g.symmetry == "comm")
        anti = next(g.name for g in p.generators if g.symmetry == "anti")
        dep = free3.depolarize_map(p.shape, _T3, {"m": (comm, anti)})
        return _hopf_type3(_T3, dep.apply_subspace(p.R))
    raise CheckerError("unsupported multi-generator presentation")


_COMM_TABLE = {0: ((1, (0, 0)),)}    # Delta(c) = c (x) c


def _hopf_comm(p: Presentation) -> HopfResult:
    """Case of a commutative generator: the counit forces Delta(c) = c (x) c;
    it remains to test that the relations are preserved."""
    constraints = _hopf_constraints(p.shape, p.R, _COMM_TABLE)
    if constraints:
        return HopfResult("none", None,
                          f"relation image survives in the quotient: "
                          f"{_render_row(p.shape, constraints[0][1])}")
    return HopfResult("unique", {"A": 1}, None)


def _hopf_type3(shape: EShape, R: Subspace) -> HopfResult:
    tbl = _delta2_table(DiagonalCandidate.normalized_family())
    constraints = _hopf_constraints(shape, R, tbl)
    if not constraints:
        return HopfResult("all", "any B", None)
    roots = _solve_constraints(constraints)
    if roots == "unsolved":
        worst = min((c for c, _ in constraints), key=lambda c: c.degree)
        return HopfResult("none", None,
                          f"irreducible constraint over the tower: "
                          f"{worst.render()} = 0")
    if not roots:
        bad = constraints[0][1]
        return HopfResult("none", None,
                          f"no admissible B; first failing relation: "
                          f"{_render_row(shape, bad)}")
    if len(roots) == 1:
        b = roots[0]
        assert all(c(b).is_zero() for c, _ in constraints)
        return HopfResult("unique", b, None)
    raise CheckerError(
        "several isolated diagonals found; not reachable for the supported "
        f"presentations (roots: {[r.render() for r in roots]})")


def _hopf_constraints(shape: EShape, R: Subspace, tbl):
    """Push each relation through the arity-3 map induced by the slot
    table `tbl` and reduce the image modulo R in both tensor factors.
    Returns the surviving coefficients as (BPoly, source row) pairs, in
    row order; the relations are preserved iff the list is empty."""
    constraints = []
    for r in R.rows:
        entries = {}
        for w, cw in enumerate(r):
            if not cw:
                continue
            for c, (i, j) in _delta3(shape, tbl, w):
                key = (i, j)
                entries[key] = entries.get(key, _BP0) + c * cw
        cols = {}
        for (i, j), c in entries.items():
            cols.setdefault(j, {})[i] = c
        half = {}
        for j, col in cols.items():
            for i, c in _reduce_bpoly(col, R):
                half.setdefault(i, {})[j] = c
        for i, row in half.items():
            for _, c in _reduce_bpoly(row, R):
                if c:
                    constraints.append((c, r))
    return constraints


def _reduce_bpoly(sparse_vec, R: Subspace):
    """Reduce a sparse BPoly vector modulo a Scalar-coefficient subspace."""
    vec = dict(sparse_vec)
    for row, piv in zip(R.rows, R.pivots):
        c = vec.get(piv)
        if c is None or c.is_zero():
            continue
        for k in range(piv, R.ambient):
            if row[k]:
                vec[k] = vec.get(k, _BP0) - c * row[k]
    return [(i, c) for i, c in vec.items() if c]


def _solve_constraints(constraints):
    polys = sorted({c for c, _ in constraints if c}, key=lambda c: c.degree)
    if not polys:
        return "all"
    if polys[0].degree == 0:
        return []
    candidates = _poly_roots(polys[0])
    if candidates is None:
        return "unsolved"
    return [b for b in candidates if all(c(b).is_zero() for c in polys)]


def _poly_roots(p: BPoly):
    if p.degree == 1:
        c0, c1 = p.coeffs
        return [-c0 / c1]
    if p.degree == 2:
        c0, c1, c2 = p.coeffs
        disc = c1 * c1 - Fraction(4) * c2 * c0
        s = _scalar_sqrt(disc)
        if s is None:
            return None
        half = Fraction(1, 2)
        return sorted({(-c1 + s) / c2 * half, (-c1 - s) / c2 * half},
                      key=lambda x: x.render())
    return None


def _scalar_sqrt(s: Scalar):
    """Square root within the tower when the argument lies in Q(q) and is a
    square times one of 1, 2, q, 2q (so the root is r, r*u, r*v or r*u*v)."""
    if s.is_zero():
        return SC0
    c = s.c
    if not (c[1].is_zero() and c[2].is_zero() and c[3].is_zero()):
        return None
    r = c[0]
    q = RatFunc.q()
    for divisor, unit in ((RatFunc.const(1), SC1),
                          (RatFunc.const(2), Scalar.u()),
                          (q, Scalar.v()),
                          (RatFunc.const(2) * q, Scalar.u() * Scalar.v())):
        cand = _ratfunc_sqrt(r / divisor)
        if cand is not None:
            return Scalar(cand) * unit
    return None


def _ratfunc_sqrt(r):
    num = _poly_sqrt(r.num)
    den = _poly_sqrt(r.den)
    if num is None or den is None:
        return None
    return RatFunc(num, den)


def _poly_sqrt(p):
    """Exact square root of a polynomial over Q, or None."""
    if not p:
        return ()
    if (len(p) - 1) % 2:
        return None
    deg = (len(p) - 1) // 2
    lead = p[-1]
    root_lead = _rational_sqrt(lead)
    if root_lead is None:
        return None
    out = [Fraction(0)] * (deg + 1)
    out[deg] = root_lead
    # undetermined coefficients from the top down
    for k in range(deg - 1, -1, -1):
        # coefficient of x^(k+deg) in out^2 must match p[k+deg]
        acc = Fraction(0)
        for i in range(k + 1, deg + 1):
            j = k + deg - i
            if 0 <= j <= deg:
                acc += out[i] * out[j]
        out[k] = (p[k + deg] - acc) / (2 * root_lead)
    return tuple(out) if pmul(tuple(out), tuple(out)) == p else None


def _render_row(shape, row):
    parts = []
    for i, c in enumerate(row):
        if c:
            parts.append(f"({c.render()})*{shape.monomial_str(i)}")
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# substitution isomorphisms and implication checks
# ---------------------------------------------------------------------------

def slotmap_from_exprs(p: Presentation, p2: Presentation, mapping) -> SlotMap:
    """Build the induced generator map from arity-2 expressions.

    mapping sends each generator name of p to a RelationExpr over p2's
    generators whose monomials are single applications h(x,y) or h(y,x).
    """
    images = {}
    shape, shape2 = p.shape, p2.shape
    for g in p.generators:
        if g.name not in mapping:
            raise CheckerError(f"no image given for generator {g.name!r}")
        expr = mapping[g.name]
        img = []
        for coeff, node in expr.terms:
            if not (isinstance(node, App) and isinstance(node.a, Var)
                    and isinstance(node.b, Var)):
                raise CheckerError("generator images must be binary applications")
            sl = shape2.slot(node.gen)
            names = (node.a.name, node.b.name)
            if names == ("x", "y"):
                img.append((coeff, sl))
            elif names == ("y", "x"):
                sl2, sgn = shape2.tau(sl)
                img.append((coeff if sgn == 1 else -coeff, sl2))
            else:
                raise CheckerError("generator images must use x and y once each")
        images[shape.slot(g.name)] = img
        if g.symmetry == "none":
            sl_op = shape.slot(g.name, 1)
            images[sl_op] = [_tau_term(shape2, c, t) for c, t in img]
    sm = SlotMap(shape, shape2, images)
    if not sm.check_equivariant():
        raise CheckerError("generator map is not equivariant for the "
                           "transposition action")
    return sm


def _tau_term(shape2, c, t):
    t2, sgn = shape2.tau(t)
    return (c if sgn == 1 else -c, t2)


def check_substitution_iso(p: Presentation, p2: Presentation, mapping) -> bool:
    """True iff the generator substitution is an invertible equivariant map
    sending the relation space of p exactly onto that of p2."""
    sm = slotmap_from_exprs(p, p2, mapping)
    if not sm.is_invertible():
        raise CheckerError("generator map is not invertible")
    return sm.apply_subspace(p.R) == p2.R


def check_implies(p_stronger: Presentation, target: RelationExpr) -> bool:
    """True iff the target relation lies in the compiled relation space."""
    try:
        vec = relation_vector(p_stronger.shape, target)
    except (KeyError, PresentationError) as e:
        raise CheckerError(f"alphabet mismatch: {e}") from None
    return p_stronger.R.contains(vec)


def verify_identity(p: Presentation, lhs: RelationExpr, rhs: RelationExpr) -> bool:
    """Exact equality of two expressions as free-operad vectors."""
    return (relation_vector(p.shape, lhs) == relation_vector(p.shape, rhs))


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def verdict_report(p: Presentation) -> dict:
    """The JSON-ready verdict object for one presentation."""
    hopf = hopf_analyze(p)
    return {
        "presentation": p.name,
        "cyclic": check_cyclic(p),
        "dihedral": check_dihedral(p),
        "hopf": {"verdict": hopf.verdict, "witness": hopf.witness_str()},
    }
